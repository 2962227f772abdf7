"""Tests for the external-trace loader (repro.scenarios.loader).

The load-bearing pin is the one-pass ≡ two-pass equivalence: the loader
parses the file once and densifies with one ``np.unique``, and it must give
the queries, ``num_vectors`` and row counters of the two-pass streaming
pipeline it replaced (``_reference_load`` below: pass 1 folds every hashed id
into a running sorted-unique set, pass 2 parses the file again and maps each
query onto its rank in that set).
"""

import builtins
import os
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.engine import replay_table_cache_batched
from repro.caching.policies import CacheAllBlockPolicy
from repro.nvm.block import BlockLayout
from repro.scenarios.loader import READ_OPERATIONS, LoadedTrace, hash_key
from repro.scenarios import TraceLoaderConfig, characterization_report, load_trace
from repro.workloads.trace import Trace

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TWITTER = os.path.join(DATA_DIR, "sample_twitter_trace.csv")
COLUMNAR = os.path.join(DATA_DIR, "sample_columnar_trace.csv")

FIXTURES = {"twitter": TWITTER, "columnar": COLUMNAR}

TWITTER_HEADER = "timestamp,key,key_size,value_size,client_id,operation,ttl"
COLUMNAR_HEADER = "query_id,key"

#: (format, header line, data-row template) for the hand-written files.
ROW_FORMATS = [
    ("columnar", COLUMNAR_HEADER, "{q},{k}"),
    ("twitter", TWITTER_HEADER, "{q},{k},8,64,0,get,0"),
]


# ------------------------------------------------------- the two-pass oracle
def _reference_parsed(
    config: TraceLoaderConfig, counters: Optional[Dict[str, int]] = None
) -> Iterator[Tuple[str, int]]:
    """Yield ``(group_key, sparse_id)`` per kept row, streaming the file."""
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


def _reference_sparse_queries(
    config: TraceLoaderConfig, counters: Optional[Dict[str, int]] = None
) -> Iterator[np.ndarray]:
    """Consecutive kept rows sharing a group key form one query."""
    pending_key: Optional[str] = None
    pending: List[int] = []
    for group_key, sparse_id in _reference_parsed(config, counters):
        if pending and group_key != pending_key:
            yield np.asarray(pending, dtype=np.int64)
            pending = []
        pending_key = group_key
        pending.append(sparse_id)
    if pending:
        yield np.asarray(pending, dtype=np.int64)


def _reference_load(config: TraceLoaderConfig, fold_ids: int = 1 << 16):
    """The two-pass pipeline: (queries, num_vectors, source_rows, dropped_rows).

    Keys go through today's :func:`hash_key` so that the oracle checks the
    pipeline, not the key hashing (which has its own tests below).
    """
    unique = np.empty(0, dtype=np.int64)
    buffered: List[np.ndarray] = []
    buffered_ids = 0
    for query in _reference_sparse_queries(config):  # pass 1
        buffered.append(query)
        buffered_ids += query.size
        if buffered_ids >= fold_ids:
            unique = np.union1d(unique, np.concatenate(buffered))
            buffered, buffered_ids = [], 0
    if buffered:
        unique = np.union1d(unique, np.concatenate(buffered))
    counters: Dict[str, int] = {}
    queries = []
    for query in _reference_sparse_queries(config, counters):  # pass 2
        dense = np.searchsorted(unique, query)
        assert np.array_equal(unique[dense], query)
        queries.append(dense)
    return queries, int(unique.size), counters.get("rows", 0), counters.get("dropped", 0)


def _write(path, text: str) -> str:
    with open(path, "wb") as handle:
        handle.write(text.encode("utf-8"))
    return str(path)


def _assert_matches_reference(config: TraceLoaderConfig, fold_ids: int = 1 << 16) -> None:
    queries, num_vectors, rows, dropped = _reference_load(config, fold_ids)
    if not queries:
        with pytest.raises(ValueError, match=rf"\({rows} rows, {dropped} dropped\)"):
            load_trace(config)
        return
    loaded = load_trace(config)
    assert loaded.trace.num_vectors == num_vectors
    assert (loaded.source_rows, loaded.dropped_rows) == (rows, dropped)
    assert len(loaded.trace.queries) == len(queries)
    for got, expected in zip(loaded.trace.queries, queries):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


# ------------------------------------------------------------------- hash_key
class TestHashKey:
    def test_numeric_keys_map_to_themselves(self):
        assert hash_key("0") == 0
        assert hash_key("12345") == 12345
        assert hash_key(str(2**63 - 1)) == 2**63 - 1

    def test_deterministic_and_63_bit(self):
        values = {hash_key(f"user_{i:04d}") for i in range(200)}
        assert len(values) == 200  # no collisions on a small key set
        assert all(0 <= v < 2**63 for v in values)
        # Stable across calls (unlike the salted builtin hash).
        assert hash_key("k00ff1234") == hash_key("k00ff1234")

    def test_distinct_keys_distinct_ids(self):
        assert hash_key("abc") != hash_key("abd")

    def test_non_canonical_numerals_are_distinct_keys(self):
        # Only a canonical ASCII decimal in [0, 2**63) is its own id; every
        # spelling that int() would also accept is a different key.
        keys = [
            "7", "007", "+7", " 7", "7 ", "٧",  # Arabic-Indic seven
            "1000", "1_000", "-0", "00",
            "-1", str(2**63 - 1), str(2**63), str(2**64 + 5), "5" * 5000,
        ]
        ids = [hash_key(key) for key in keys]
        assert len(set(ids)) == len(keys)
        assert all(0 <= value < 2**63 for value in ids)
        assert (hash_key("7"), hash_key("1000")) == (7, 1000)

    @pytest.mark.parametrize(
        "key", ["0", "1", "9", "10", "4096", "1" + "0" * 18, str(2**63 - 1)]
    )
    def test_canonical_decimal_is_its_own_id(self, key):
        assert hash_key(key) == int(key)

    @pytest.mark.parametrize(
        "key, fnv1a_64",
        # Published FNV-1a 64-bit test vectors.
        [("", 0xCBF29CE484222325), ("a", 0xAF63DC4C8601EC8C),
         ("foobar", 0x85944171F73967E8)],
    )
    def test_other_keys_are_fnv1a_masked_to_63_bits(self, key, fnv1a_64):
        assert hash_key(key) == fnv1a_64 & (2**63 - 1)

    @pytest.mark.parametrize(
        "key", ["007", "+7", "-1", "1_000", "٧", str(2**63), "k00a18851"]
    )
    def test_non_canonical_keys_go_through_fnv1a(self, key):
        value = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            value = ((value ^ byte) * 0x100000001B3) % 2**64
        assert hash_key(key) == value % 2**63


# ------------------------------------------------------------------- loading
class TestLoadTrace:
    def test_twitter_fixture_golden(self):
        loaded = load_trace(TraceLoaderConfig(path=TWITTER, format="twitter"))
        assert isinstance(loaded, LoadedTrace)
        assert len(loaded.trace.queries) == 428
        assert loaded.trace.num_vectors == 302
        assert sum(q.size for q in loaded.trace.queries) == 2260
        assert loaded.source_rows == 2400
        assert loaded.dropped_rows == 140  # the fixture's mutation rows
        # Dense-id contract: every id within [0, num_vectors).
        ids = np.concatenate(loaded.trace.queries)
        assert ids.min() >= 0 and ids.max() < loaded.trace.num_vectors

    def test_columnar_fixture_golden(self):
        loaded = load_trace(TraceLoaderConfig(path=COLUMNAR, format="columnar"))
        assert len(loaded.trace.queries) == 120
        assert loaded.trace.num_vectors == 190
        assert sum(q.size for q in loaded.trace.queries) == 575
        assert loaded.dropped_rows == 0

    @pytest.mark.parametrize(
        "operation, kept",
        [("get", True), ("gets", True)]
        + [
            (op, False)
            for op in ("set", "add", "replace", "cas", "append", "prepend", "delete", "incr", "decr")
        ],
    )
    def test_only_read_rows_are_kept(self, tmp_path, operation, kept):
        # The twitter layout's read filter: a mutation row is a source row
        # the loader drops (and counts), so its key never joins a query.
        lines = [
            TWITTER_HEADER,
            "1,10,8,64,0,get,0",
            f"1,11,8,64,0,{operation},0",
            "2,12,8,64,0,get,0",
        ]
        path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=path, format="twitter"))
        assert loaded.source_rows == 3
        assert loaded.dropped_rows == (0 if kept else 1)
        assert [q.size for q in loaded.trace.queries] == [2 if kept else 1, 1]
        assert loaded.trace.num_vectors == (3 if kept else 2)

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_trace(TraceLoaderConfig(path=os.path.join(DATA_DIR, "nope.csv")))

    @pytest.mark.parametrize("fmt, header, row", ROW_FORMATS)
    def test_short_row_is_counted_and_dropped(self, tmp_path, fmt, header, row):
        # A malformed one-field row is a source row the loader discarded, in
        # either format: it must show in both counters, not vanish.
        lines = [header, row.format(q=1, k=10), row.format(q=1, k=11), "7",
                 row.format(q=2, k=12)]
        path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        assert (loaded.source_rows, loaded.dropped_rows) == (4, 1)
        assert sum(q.size for q in loaded.trace.queries) == 3

    @pytest.mark.parametrize("fmt, header, row", ROW_FORMATS, ids=["columnar", "twitter"])
    def test_empty_key_is_counted_and_dropped(self, tmp_path, fmt, header, row):
        # An empty key field is a malformed row, not a vector of its own.
        lines = [header, row.format(q=1, k=10), row.format(q=1, k=""),
                 row.format(q=2, k=""), row.format(q=2, k=12)]
        path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        assert (loaded.source_rows, loaded.dropped_rows) == (4, 2)
        assert loaded.trace.num_vectors == 2
        assert [q.tolist() for q in loaded.trace.queries] == [[0], [1]]

    @pytest.mark.parametrize(
        "fmt, case, text, rows",
        [
            pytest.param(fmt, case, text, rows, id=f"{fmt}-{case}")
            for fmt, case, text, rows in [
                ("twitter", "empty", "", 0),
                ("columnar", "empty", "", 0),
                ("twitter", "header-only", TWITTER_HEADER + "\n\n", 0),
                ("columnar", "header-only", COLUMNAR_HEADER + "\n", 0),
                ("twitter", "mutation-only", "1,10,8,64,0,set,0\n2,11,8,64,0,delete,0\n", 2),
                ("columnar", "empty-key-only", "1,\n2,\n", 2),
            ]
        ],
    )
    def test_file_without_a_query_raises(self, tmp_path, fmt, case, text, rows):
        # A trace with nothing to serve must not characterise as zeros.
        path = _write(tmp_path / f"{case}.csv", text)
        with pytest.raises(ValueError, match=rf"{case}\.csv.*\({rows} rows, {rows} dropped\)"):
            load_trace(TraceLoaderConfig(path=path, format=fmt))

    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    def test_non_utf8_byte_raises_naming_the_line(self, tmp_path, fmt):
        path = tmp_path / "latin1.csv"
        header = TWITTER_HEADER if fmt == "twitter" else COLUMNAR_HEADER
        tail = ",8,64,0,get,0" if fmt == "twitter" else ""
        path.write_bytes(
            f"{header}\r\n1,k1{tail}\r\n".encode() + f"2,caf\xe9{tail}\n".encode("latin-1")
        )
        with pytest.raises(ValueError, match=r"latin1\.csv: line 3 is not UTF-8"):
            load_trace(TraceLoaderConfig(path=str(path), format=fmt))

    @pytest.mark.parametrize(
        "fmt, first, header",
        [
            pytest.param("columnar", COLUMNAR_HEADER, True, id="columnar-named"),
            pytest.param("columnar", "q", True, id="columnar-short"),
            pytest.param("columnar", "-5,k9", False, id="columnar-negative-id"),
            pytest.param("twitter", TWITTER_HEADER, True, id="twitter-named"),
            pytest.param("twitter", "timestamp", True, id="twitter-short"),
            pytest.param("twitter", "5,k9,8,64,0,get,0", False, id="twitter-data"),
        ],
    )
    def test_header_is_recognised_on_the_first_line_only(self, tmp_path, fmt, first, header):
        # The same line is a (dropped or kept) source row on any later line.
        row = dict((f, r) for f, _h, r in ROW_FORMATS)[fmt]
        data = [row.format(q=1, k="k1"), row.format(q=2, k="k2")]
        first_path = _write(tmp_path / "first.csv", "\n".join([first] + data))
        later_path = _write(tmp_path / "later.csv", "\n".join(data + [first]))
        loaded = load_trace(TraceLoaderConfig(path=first_path, format=fmt))
        assert loaded.source_rows == (2 if header else 3)
        assert load_trace(TraceLoaderConfig(path=later_path, format=fmt)).source_rows == 3

    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    @pytest.mark.parametrize("ending", ["\r\n", "\r", "none"])
    def test_line_endings_do_not_change_the_load(self, tmp_path, fmt, ending):
        with open(FIXTURES[fmt], encoding="utf-8") as handle:
            text = handle.read()
        text = text.rstrip("\n") if ending == "none" else text.replace("\n", ending)
        path = _write(tmp_path / "trace.csv", text)
        expected = load_trace(TraceLoaderConfig(path=FIXTURES[fmt], format=fmt))
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        assert (loaded.source_rows, loaded.dropped_rows) == (
            expected.source_rows, expected.dropped_rows)
        assert loaded.trace.num_vectors == expected.trace.num_vectors
        assert len(loaded.trace.queries) == len(expected.trace.queries)
        for got, want in zip(loaded.trace.queries, expected.trace.queries):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fmt, header, row", ROW_FORMATS, ids=["columnar", "twitter"])
    def test_only_consecutive_rows_share_a_query(self, tmp_path, fmt, header, row):
        # A group key that comes back after another one starts a new query.
        lines = [header] + [row.format(q=q, k=k) for q, k in
                            [(1, 10), (1, 11), (2, 12), (1, 13), (1, 14)]]
        path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        assert [q.tolist() for q in loaded.trace.queries] == [[0, 1], [2], [3, 4]]

    @pytest.mark.parametrize("fmt, header, row", ROW_FORMATS, ids=["columnar", "twitter"])
    def test_repeated_key_in_a_query_stays_a_lookup(self, tmp_path, fmt, header, row):
        # A query keeps every lookup it made; one key is one vector.
        lines = [header] + [row.format(q=1, k=k) for k in (20, 30, 20, 20)]
        path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        assert loaded.trace.num_vectors == 2
        assert [q.tolist() for q in loaded.trace.queries] == [[0, 1, 0, 0]]

    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    def test_file_is_opened_once(self, monkeypatch, fmt):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        load_trace(TraceLoaderConfig(path=FIXTURES[fmt], format=fmt))
        assert opened == [FIXTURES[fmt]]


# ------------------------------------------------ one pass ≡ two-pass oracle
def _csv_rows(fmt: str):
    """One CSV line of ``fmt``: a full row (padded or not), a short row or a blank."""
    group = st.sampled_from(["0", "1", "2", "-1", "x"])
    key = st.sampled_from(["k1", "k2", "k3", "kff", "7", "007", "12", " k1", "k1 "])
    if fmt == "twitter":
        operation = st.sampled_from(["get", "gets", "get", "set", "delete"])
        client = st.sampled_from(["0", "1"])
        full = st.builds(
            lambda t, k, c, o: f"{t},{k},8,64,{c},{o},0", group, key, client, operation
        )
        short = st.integers(1, 5).map(lambda n: ",".join(["3"] * n))
    else:
        full = st.builds(lambda q, k, extra: f"{q},{k}{extra}", group, key,
                         st.sampled_from(["", ",z"]))
        short = st.sampled_from(["3", "x"])
    padded = st.builds(lambda pad, row, tail: pad + row + tail,
                       st.sampled_from(["", "", " "]), full, st.sampled_from(["", "\t"]))
    blank = st.sampled_from(["", "  ", "\t"])
    return st.one_of(full, padded, full, short, blank)


@st.composite
def csv_traces(draw):
    fmt = draw(st.sampled_from(sorted(FIXTURES)))
    lines = draw(st.lists(_csv_rows(fmt), max_size=40))
    if draw(st.booleans()):
        lines.insert(0, TWITTER_HEADER if fmt == "twitter" else COLUMNAR_HEADER)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    trailing = draw(st.sampled_from(["", newline]))
    return fmt, newline.join(lines) + trailing


class TestOnePassMatchesTwoPassReference:
    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    def test_fixtures(self, fmt):
        config = TraceLoaderConfig(path=FIXTURES[fmt], format=fmt)
        _assert_matches_reference(config)
        _assert_matches_reference(config, fold_ids=7)  # pass 1 folds many times

    def test_dropped_rows_inside_one_query(self, tmp_path):
        # A mutation and a short row between two reads of one
        # (timestamp, client) leave one query, as they did in two passes.
        lines = [TWITTER_HEADER, "1,a,8,64,0,get,0", "1,b,8,64,0,set,0", "1,2",
                 "", "1,c,8,64,0,get,0", "1,d,8,64,1,get,0"]
        config = TraceLoaderConfig(path=_write(tmp_path / "t.csv", "\n".join(lines)))
        _assert_matches_reference(config)
        assert [q.size for q in load_trace(config).trace.queries] == [2, 1]

    @settings(max_examples=200, deadline=None)
    @given(csv_traces())
    def test_generated_csv(self, case):
        fmt, text = case
        with tempfile.TemporaryDirectory() as directory:
            path = _write(os.path.join(directory, "trace.csv"), text)
            _assert_matches_reference(TraceLoaderConfig(path=path, format=fmt), fold_ids=3)


# ------------------------------------------------------------ dense-id contract
def _columnar_text(queries) -> str:
    return "\n".join(
        [COLUMNAR_HEADER]
        + [f"{q},{int(key)}" for q, query in enumerate(queries) for key in query]
    ) + "\n"


class TestDenseIds:
    def test_dense_id_is_rank_over_the_whole_universe(self, tmp_path):
        # Sparse 63-bit keys land on [0, distinct keys), each on its rank in
        # the sorted universe, so the mapping does not depend on query order.
        rng = np.random.default_rng(4)
        universe = rng.choice(2**63 - 1, size=96, replace=False)
        queries = [rng.choice(universe, size=rng.integers(1, 7), replace=False)
                   for _ in range(120)]
        seen = np.unique(np.concatenate(queries))
        for name, order in (("forward", queries), ("reversed", queries[::-1])):
            path = _write(tmp_path / f"{name}.csv", _columnar_text(order))
            loaded = load_trace(TraceLoaderConfig(path=path, format="columnar"))
            assert loaded.trace.num_vectors == seen.size <= 96
            for got, sparse in zip(loaded.trace.queries, order):
                np.testing.assert_array_equal(got, np.searchsorted(seen, sparse))

    def test_replay_counters_invariant_under_relabelling(self, tmp_path):
        # Loading renames ids; with a layout renamed the same way the replay
        # is step-for-step identical to the replay of the original trace.
        rng = np.random.default_rng(2)
        n = 64
        perm = rng.permutation(n).astype(np.int64) * 1000 + 17  # sparse rename
        dense_trace = Trace([rng.integers(0, n, size=5) for _ in range(80)], num_vectors=n)
        path = _write(tmp_path / "renamed.csv",
                      _columnar_text([perm[q] for q in dense_trace.queries]))
        loaded = load_trace(TraceLoaderConfig(path=path, format="columnar"))
        assert loaded.trace.num_vectors == n  # every id is touched
        layout = BlockLayout.identity(n, 8)
        renamed = BlockLayout(
            np.searchsorted(np.sort(perm), perm[layout.order]), vectors_per_block=8
        )
        baseline = replay_table_cache_batched(
            dense_trace.queries, layout, CacheAllBlockPolicy(), cache_size=16
        )
        relabelled = replay_table_cache_batched(
            loaded.trace.queries, renamed, CacheAllBlockPolicy(), cache_size=16
        )
        assert relabelled.counters() == baseline.counters()


# ------------------------------------------------------------ characterization
class TestCharacterizationReport:
    def test_renders_against_paper_table1(self):
        loaded = load_trace(TraceLoaderConfig(path=TWITTER, format="twitter"))
        report = characterization_report(loaded, name="sample-twitter")
        measured = report["measured"]
        assert measured["name"] == "sample-twitter"
        assert measured["num_queries"] == 428
        assert measured["num_vectors"] == 302
        assert measured["format"] == "twitter"
        assert 0.0 < measured["compulsory_miss_rate"] < 1.0
        assert measured["avg_lookups_per_query"] == pytest.approx(2260 / 428, rel=1e-3)
        # All eight production rows, column for column.
        paper = report["paper_table1"]
        assert len(paper) == 8
        for row in paper:
            assert set(row) == {
                "name",
                "num_vectors",
                "avg_lookups_per_query",
                "lookup_share",
                "compulsory_miss_rate",
            }
