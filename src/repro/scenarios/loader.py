"""External-trace loader, normalised into the dense-id contract.

Two public cache-trace layouts are understood (:data:`~repro.scenarios.config.TRACE_FORMATS`):

* ``"twitter"`` — the Twitter production cache-trace CSV layout
  (``timestamp,key,key_size,value_size,client_id,operation,ttl``).  Keys are
  anonymised tokens; each is mapped to a stable 63-bit id (:func:`hash_key`),
  and consecutive kept rows sharing ``(timestamp, client_id)`` form one
  multi-get query.  Mutation rows are dropped, matching how a read-path
  store sees the trace.
* ``"columnar"`` — a generic two-column ``query_id,key`` CSV; consecutive
  rows sharing a ``query_id`` form one query.

:func:`load_trace` reads the file once: it parses the kept rows, groups
consecutive rows by their group key, hashes the keys and densifies them with
one ``np.unique``, so a key's dense id is its hashed id's rank over the whole
universe, whatever order the queries come in.  A row that is too short or
has an empty key is counted as dropped; a file with no kept query, or with a
byte that is not UTF-8, raises ``ValueError`` naming the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.scenarios.config import TraceLoaderConfig
from repro.workloads.characterization import TableCharacterization, characterize_table
from repro.workloads.tables_spec import PAPER_TABLE_SPECS
from repro.workloads.trace import Trace

#: Twitter-trace operations that read (everything else is a mutation).
READ_OPERATIONS = frozenset({"get", "gets"})

# FNV-1a 64-bit constants (stable, dependency-free string hashing).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MAX_ID = (1 << 63) - 1


def hash_key(key: str) -> int:
    """Stable non-negative 63-bit id of one trace key.

    A canonical ASCII decimal in ``[0, 2**63)`` (no sign, no leading zero,
    no padding) maps to itself, so integer universes round-trip through the
    loader; every other key goes through FNV-1a, so ``"7"``, ``"007"`` and
    ``"+7"`` stay three keys.  Deterministic across runs and platforms —
    unlike the salted builtin ``hash``.
    """
    if len(key) <= 19 and key.isascii() and key.isdigit() and (key == "0" or key[0] != "0"):
        value = int(key)
        if value <= _MAX_ID:
            return value
    value = _FNV_OFFSET
    for byte in key.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value & _MAX_ID


@dataclass
class LoadedTrace:
    """An external trace after normalisation into the dense-id contract."""

    trace: Trace
    config: TraceLoaderConfig
    source_rows: int
    dropped_rows: int


def load_trace(config: TraceLoaderConfig) -> LoadedTrace:
    """Load the whole trace in one pass over the file.

    A header line is recognised on the first line by its non-numeric
    leading field (a short first line is a header too) and is not counted;
    blank lines are skipped.  Every other line is a source row, dropped when
    it has too few fields, an empty key or (twitter) a mutation operation.
    """
    twitter = config.format == "twitter"
    width = 6 if twitter else 2
    with open(config.path, "rb") as handle:
        lines = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    keys: List[str] = []
    starts: List[int] = []
    previous: Tuple[str, ...] = ()
    rows = dropped = 0
    for line_index, raw in enumerate(lines):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as error:
            raise ValueError(
                f"{config.path}: line {line_index + 1} is not UTF-8 ({error.reason})"
            ) from error
        if not line:
            continue
        fields = line.split(",")
        if line_index == 0 and (
            len(fields) < width
            or not (fields[0] if twitter else fields[0].lstrip("-")).isdigit()
        ):
            continue  # header line
        rows += 1
        if len(fields) < width or not fields[1] or (
            twitter and fields[5] not in READ_OPERATIONS
        ):
            dropped += 1
            continue
        group = (fields[0], fields[4]) if twitter else (fields[0],)
        if group != previous:
            starts.append(len(keys))
            previous = group
        keys.append(fields[1])
    if not keys:
        raise ValueError(
            f"{config.path}: no query to load ({rows} rows, {dropped} dropped)"
        )
    sparse = np.fromiter(map(hash_key, keys), dtype=np.int64, count=len(keys))
    universe, dense = np.unique(sparse, return_inverse=True)
    queries = np.split(dense.astype(np.int64, copy=False), starts[1:])
    return LoadedTrace(
        trace=Trace._trusted(queries, universe.size),
        config=config,
        source_rows=rows,
        dropped_rows=dropped,
    )


def _characterization_fields(row: TableCharacterization) -> Dict[str, object]:
    """One characterisation as the paper's Table 1 columns."""
    return {
        "name": row.name,
        "num_vectors": int(row.num_vectors),
        "avg_lookups_per_query": round(row.avg_lookups_per_query, 4),
        "lookup_share": round(row.lookup_share, 6),
        "compulsory_miss_rate": round(row.compulsory_miss_rate, 6),
        "unique_vectors_accessed": int(row.unique_vectors_accessed),
    }


def characterization_report(
    loaded: LoadedTrace, name: str = "loaded"
) -> Dict[str, object]:
    """Machine-readable side-by-side of the loaded trace vs paper Table 1.

    The ``measured`` entry is the loaded trace characterised by the same
    code path as the paper's synthetic tables
    (:func:`repro.workloads.characterization.characterize_table`); the
    ``paper_table1`` entries are the paper's eight production rows, column
    for column, so the loaded trace renders directly against Table 1.
    """
    measured = characterize_table(name, loaded.trace)
    return {
        "measured": {
            **_characterization_fields(measured),
            "num_queries": int(measured.num_queries),
            "num_lookups": int(measured.num_lookups),
            "source_rows": int(loaded.source_rows),
            "dropped_rows": int(loaded.dropped_rows),
            "format": loaded.config.format,
        },
        "paper_table1": [
            {
                "name": spec.name,
                "num_vectors": int(spec.num_vectors),
                "avg_lookups_per_query": float(spec.avg_lookups_per_query),
                "lookup_share": float(spec.lookup_share),
                "compulsory_miss_rate": float(spec.compulsory_miss_rate),
            }
            for spec in PAPER_TABLE_SPECS.values()
        ],
    }
