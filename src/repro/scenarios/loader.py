"""Streaming external-trace loader, normalised into the dense-id contract.

Two public cache-trace layouts are understood (:data:`~repro.scenarios.config.TRACE_FORMATS`):

* ``"twitter"`` — the Twitter production cache-trace CSV layout
  (``timestamp,key,key_size,value_size,client_id,operation,ttl``).  Keys are
  anonymised tokens; each is mapped to a stable 63-bit id (numeric keys map
  to themselves, others through a vectorisable FNV-1a hash), and consecutive
  kept rows sharing ``(timestamp, client_id)`` form one multi-get query.
  Mutation rows are dropped, matching how a read-path store sees the trace.
* ``"columnar"`` — a generic two-column ``query_id,key`` CSV; consecutive
  rows sharing a ``query_id`` form one query.

Loading is **two-pass streaming** so arbitrarily large traces fit in bounded
memory:

1. pass 1 streams the queries and folds their ids into a running sorted-
   unique set (:func:`build_remapper`), producing the
   :class:`~repro.workloads.remap.IdRemapper` over the *whole* universe;
2. pass 2 streams the queries again and maps each through that remapper
   (:func:`iter_dense_chunks`), yielding dense-id
   :class:`~repro.workloads.trace.Trace` chunks of ``chunk_queries`` each.

Because the remapper's sparse→dense mapping is the sorted rank over the full
universe — independent of arrival order — the chunked stream and the
whole-file load (:func:`load_trace`) produce bit-identical queries for every
chunk size; ``tests/test_trace_loader.py`` pins that equivalence through a
full cache replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.scenarios.config import TraceLoaderConfig
from repro.workloads.characterization import TableCharacterization, characterize_table
from repro.workloads.remap import IdRemapper
from repro.workloads.tables_spec import PAPER_TABLE_SPECS
from repro.workloads.trace import Trace

#: Twitter-trace operations that read (everything else is a mutation).
READ_OPERATIONS = frozenset({"get", "gets"})

#: Ids folded into the running unique set per pass-1 batch (memory bound).
_UNIQUE_FOLD_IDS = 1 << 16

# FNV-1a 64-bit constants (stable, dependency-free string hashing).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def hash_key(key: str) -> int:
    """Stable non-negative 63-bit id of one trace key.

    Numeric keys map to themselves (so integer universes round-trip through
    the loader); other keys go through FNV-1a.  Deterministic across runs
    and platforms — unlike the salted builtin ``hash``.
    """
    try:
        value = int(key)
    except ValueError:
        value = _FNV_OFFSET
        for byte in key.encode("utf-8"):
            value ^= byte
            value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value & 0x7FFFFFFFFFFFFFFF


@dataclass
class LoadedTrace:
    """An external trace after normalisation into the dense-id contract."""

    trace: Trace
    remapper: IdRemapper
    config: TraceLoaderConfig
    source_rows: int
    dropped_rows: int


def _iter_parsed(
    config: TraceLoaderConfig, counters: Optional[Dict[str, int]] = None
) -> Iterator[Tuple[str, int]]:
    """Yield ``(group_key, sparse_id)`` per kept row, streaming the file.

    ``counters`` (when given) accumulates ``"rows"`` (data rows seen) and
    ``"dropped"`` (rows discarded by the read-only filter or as malformed).
    A header line is recognised by its non-numeric leading field and is not
    counted as a row.
    """
    if not os.path.exists(config.path):
        raise FileNotFoundError(config.path)
    with open(config.path, "r", encoding="utf-8") as handle:
        for line_index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if config.format == "twitter":
                if len(fields) < 6:
                    if line_index == 0:
                        continue  # short header
                    if counters is not None:
                        counters["rows"] = counters.get("rows", 0) + 1
                        counters["dropped"] = counters.get("dropped", 0) + 1
                    continue
                timestamp, key, _key_size, _value_size, client, operation = fields[:6]
                if line_index == 0 and not timestamp.isdigit():
                    continue  # header line
                if counters is not None:
                    counters["rows"] = counters.get("rows", 0) + 1
                if operation not in READ_OPERATIONS:
                    if counters is not None:
                        counters["dropped"] = counters.get("dropped", 0) + 1
                    continue
                yield f"{timestamp},{client}", hash_key(key)
            else:  # columnar: query_id,key
                if len(fields) < 2:
                    if line_index == 0:
                        continue  # short header
                    if counters is not None:
                        counters["rows"] = counters.get("rows", 0) + 1
                        counters["dropped"] = counters.get("dropped", 0) + 1
                    continue
                query_id, key = fields[0], fields[1]
                if line_index == 0 and not query_id.lstrip("-").isdigit():
                    continue  # header line
                if counters is not None:
                    counters["rows"] = counters.get("rows", 0) + 1
                yield query_id, hash_key(key)


def iter_sparse_queries(
    config: TraceLoaderConfig, counters: Optional[Dict[str, int]] = None
) -> Iterator[np.ndarray]:
    """Stream the trace's queries with their original (sparse) ids.

    Consecutive kept rows sharing a group key form one query; a change of
    key closes the query.  Honour's the config's ``max_queries`` cap.
    """
    pending_key: Optional[str] = None
    pending: List[int] = []
    emitted = 0
    for group_key, sparse_id in _iter_parsed(config, counters):
        if pending and group_key != pending_key:
            yield np.asarray(pending, dtype=np.int64)
            emitted += 1
            pending = []
            if config.max_queries is not None and emitted >= config.max_queries:
                return
        pending_key = group_key
        pending.append(sparse_id)
    if pending and (config.max_queries is None or emitted < config.max_queries):
        yield np.asarray(pending, dtype=np.int64)


def build_remapper(config: TraceLoaderConfig) -> IdRemapper:
    """Pass 1: the id remapper over the trace's whole key universe.

    Streams the file once, folding ids into a running sorted-unique array
    every :data:`_UNIQUE_FOLD_IDS` ids, so memory stays proportional to the
    number of *distinct* keys, never the trace length.
    """
    unique = np.empty(0, dtype=np.int64)
    buffered: List[np.ndarray] = []
    buffered_ids = 0
    for query in iter_sparse_queries(config):
        buffered.append(query)
        buffered_ids += query.size
        if buffered_ids >= _UNIQUE_FOLD_IDS:
            unique = np.union1d(unique, np.concatenate(buffered))
            buffered = []
            buffered_ids = 0
    if buffered:
        unique = np.union1d(unique, np.concatenate(buffered))
    return IdRemapper(unique)


def iter_dense_chunks(
    config: TraceLoaderConfig,
    remapper: Optional[IdRemapper] = None,
    counters: Optional[Dict[str, int]] = None,
) -> Iterator[Trace]:
    """Pass 2: stream the trace as dense-id chunks of ``chunk_queries``.

    Every chunk is a :class:`~repro.workloads.trace.Trace` over the full
    dense universe (``num_vectors = remapper.num_ids``), so chunks replay
    directly against one store.  Builds the remapper (pass 1) when not
    given one.
    """
    if remapper is None:
        remapper = build_remapper(config)
    chunk: List[np.ndarray] = []
    for query in iter_sparse_queries(config, counters):
        chunk.append(remapper.to_dense(query))
        if len(chunk) >= config.chunk_queries:
            yield Trace(chunk, num_vectors=remapper.num_ids)
            chunk = []
    if chunk:
        yield Trace(chunk, num_vectors=remapper.num_ids)


def load_trace(config: TraceLoaderConfig) -> LoadedTrace:
    """Load the whole trace through the two-pass pipeline.

    Equivalent to concatenating every chunk of :func:`iter_dense_chunks`
    (bit-identical queries — the equivalence the tests pin).
    """
    remapper = build_remapper(config)
    counters: Dict[str, int] = {}
    queries: List[np.ndarray] = []
    for chunk in iter_dense_chunks(config, remapper, counters):
        queries.extend(chunk.queries)
    return LoadedTrace(
        trace=Trace(queries, num_vectors=remapper.num_ids),
        remapper=remapper,
        config=config,
        source_rows=counters.get("rows", 0),
        dropped_rows=counters.get("dropped", 0),
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
