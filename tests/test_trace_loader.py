"""Tests for the streaming external-trace loader (repro.scenarios.loader).

The load-bearing pin is the chunked≡whole equivalence: because the
IdRemapper's sparse→dense mapping is the sorted rank over the full key
universe — independent of arrival order — streaming the trace in chunks of
any size must produce bit-identical queries (and hence bit-identical replay
counters) to loading the file whole.
"""

import os

import numpy as np
import pytest

from repro.caching.engine import BatchReplayEngine
from repro.caching.policies import CacheAllBlockPolicy
from repro.nvm.block import BlockLayout
from repro.scenarios import (
    LoadedTrace,
    TraceLoaderConfig,
    build_remapper,
    characterization_report,
    hash_key,
    iter_dense_chunks,
    iter_sparse_queries,
    load_trace,
)

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TWITTER = os.path.join(DATA_DIR, "sample_twitter_trace.csv")
COLUMNAR = os.path.join(DATA_DIR, "sample_columnar_trace.csv")

FIXTURES = {"twitter": TWITTER, "columnar": COLUMNAR}


# ------------------------------------------------------------------- hash_key
class TestHashKey:
    def test_numeric_keys_map_to_themselves(self):
        assert hash_key("0") == 0
        assert hash_key("12345") == 12345

    def test_deterministic_and_63_bit(self):
        values = {hash_key(f"user_{i:04d}") for i in range(200)}
        assert len(values) == 200  # no collisions on a small key set
        assert all(0 <= v < 2**63 for v in values)
        # Stable across calls (unlike the salted builtin hash).
        assert hash_key("k00ff1234") == hash_key("k00ff1234")

    def test_distinct_keys_distinct_ids(self):
        assert hash_key("abc") != hash_key("abd")


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
        header = "timestamp,key,key_size,value_size,client_id,operation,ttl"
        lines = [
            header,
            "1,10,8,64,0,get,0",
            f"1,11,8,64,0,{operation},0",
            "2,12,8,64,0,get,0",
        ]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=str(path), format="twitter"))
        assert loaded.source_rows == 3
        assert loaded.dropped_rows == (0 if kept else 1)
        assert [q.size for q in loaded.trace.queries] == [2 if kept else 1, 1]
        assert loaded.trace.num_vectors == (3 if kept else 2)

    def test_max_queries_cap(self):
        capped = load_trace(
            TraceLoaderConfig(path=TWITTER, format="twitter", max_queries=25)
        )
        assert len(capped.trace.queries) == 25

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_trace(TraceLoaderConfig(path=os.path.join(DATA_DIR, "nope.csv")))

    @pytest.mark.parametrize(
        "fmt, header, row",
        [
            ("columnar", "query_id,key", "{q},{k}"),
            (
                "twitter",
                "timestamp,key,key_size,value_size,client_id,operation,ttl",
                "{q},{k},8,64,0,get,0",
            ),
        ],
    )
    def test_short_row_is_counted_and_dropped(self, tmp_path, fmt, header, row):
        # A malformed one-field row is a source row the loader discarded, in
        # either format: it must show in both counters, not vanish.
        lines = [header, row.format(q=1, k=10), row.format(q=1, k=11), "7",
                 row.format(q=2, k=12)]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_trace(TraceLoaderConfig(path=str(path), format=fmt))
        assert (loaded.source_rows, loaded.dropped_rows) == (4, 1)
        assert sum(q.size for q in loaded.trace.queries) == 3


# -------------------------------------------------- chunked ≡ whole equivalence
class TestChunkedEquivalence:
    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    @pytest.mark.parametrize("chunk_queries", [1, 7, 64])
    def test_chunked_queries_bit_identical(self, fmt, chunk_queries):
        whole = load_trace(TraceLoaderConfig(path=FIXTURES[fmt], format=fmt))
        chunked_config = TraceLoaderConfig(
            path=FIXTURES[fmt], format=fmt, chunk_queries=chunk_queries
        )
        streamed = []
        for chunk in iter_dense_chunks(chunked_config):
            assert chunk.num_vectors == whole.trace.num_vectors
            assert len(chunk.queries) <= chunk_queries
            streamed.extend(chunk.queries)
        assert len(streamed) == len(whole.trace.queries)
        for got, expected in zip(streamed, whole.trace.queries):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("fmt", sorted(FIXTURES))
    def test_chunked_replay_counters_bit_identical(self, fmt):
        # The equivalence the dense-id contract exists for: replaying the
        # streamed chunks through one engine reproduces the whole-file
        # replay counter for counter.
        whole = load_trace(TraceLoaderConfig(path=FIXTURES[fmt], format=fmt))
        layout = BlockLayout.identity(whole.trace.num_vectors, 8)

        def fresh_engine():
            return BatchReplayEngine(
                layout, CacheAllBlockPolicy(), cache_size=whole.trace.num_vectors // 4
            )

        reference = fresh_engine().replay(whole.trace.queries)
        engine = fresh_engine()
        for chunk in iter_dense_chunks(
            TraceLoaderConfig(path=FIXTURES[fmt], format=fmt, chunk_queries=7)
        ):
            stats = engine.replay(chunk.queries)
        assert stats.counters() == reference.counters()

    def test_remapper_is_shared_across_chunks(self):
        config = TraceLoaderConfig(path=TWITTER, format="twitter")
        remapper = build_remapper(config)
        loaded = load_trace(config)
        assert remapper.num_ids == loaded.trace.num_vectors
        for sparse, dense in zip(iter_sparse_queries(config), loaded.trace.queries):
            np.testing.assert_array_equal(remapper.to_dense(sparse), dense)
            np.testing.assert_array_equal(loaded.remapper.to_dense(sparse), dense)


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
