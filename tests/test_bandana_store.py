"""Integration tests for the end-to-end Bandana store."""

import hashlib
import re

import numpy as np
import pytest

from repro.caching.allocation import allocate_dram_budget
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.stack_distance import hit_rate_curve
from repro.caching.replay import ReplayStats
from repro.core.bandana import TUNING_HOLDOUT, BandanaStore
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.embeddings import EmbeddingModel, EmbeddingTable, synthesize_topic_vectors
from repro.nvm.block import BlockLayout
from repro.partitioning.shp import SHPPartitioner
from repro.simulation.runner import simulate_store
from repro.workloads.characterization import access_counts
from repro.workloads import SyntheticTraceGenerator
from repro.workloads.trace import ModelTrace, Trace
from tests.conftest import build_store, counters, golden, make_spec, store_stages


def make_store_workload():
    """Two small tables: (specs, model, training traces, evaluation traces)."""
    specs = {
        "alpha": make_spec(name="alpha", num_vectors=2048, avg_lookups=16, compulsory=0.1),
        "beta": make_spec(name="beta", num_vectors=4096, avg_lookups=8, compulsory=0.4),
    }
    generators = {
        name: SyntheticTraceGenerator(spec, seed=20 + i, expected_lookups=4000)
        for i, (name, spec) in enumerate(specs.items())
    }
    train = ModelTrace({n: g.generate_lookups(8000) for n, g in generators.items()})
    evaluation = ModelTrace({n: g.generate_lookups(4000) for n, g in generators.items()})
    model = EmbeddingModel()
    for name, spec in specs.items():
        values = synthesize_topic_vectors(generators[name].topic_of(), dim=16, noise=0.4, seed=5)
        model.add_table(EmbeddingTable(name, spec.num_vectors, dim=16, values=values))
    return specs, model, train, evaluation


@pytest.fixture(scope="module")
def store_workload():
    return make_store_workload()


@pytest.fixture(scope="module")
def built_store(store_workload):
    specs, model, train, _ = store_workload
    config = BandanaConfig(
        total_cache_vectors=800,
        mini_cache_sampling_rate=0.25,
        shp_iterations=6,
        seed=0,
    )
    return BandanaStore.build(
        train,
        config,
        embedding_model=model,
        num_vectors={n: s.num_vectors for n, s in specs.items()},
    )


class TestBuild:
    def test_tables_and_budget(self, built_store):
        assert set(built_store.tables) == {"alpha", "beta"}
        total_cache = sum(
            state.cache_config.cache_size_vectors for state in built_store.tables.values()
        )
        assert total_cache <= built_store.config.total_cache_vectors
        for state in built_store.tables.values():
            assert state.layout.num_vectors == state.access_counts.shape[0]
            assert state.cache_config.threshold is not None

    def test_dram_and_nvm_footprints(self, built_store, store_workload):
        specs = store_workload[0]
        total_vectors = sum(s.num_vectors for s in specs.values())
        num_blocks = sum(state.layout.num_blocks for state in built_store.tables.values())
        assert num_blocks * built_store.config.block_bytes >= total_vectors * 128
        assert built_store.dram_bytes() <= built_store.config.total_cache_vectors * 128

    def test_num_vectors_naming_an_unknown_table_raises(self, store_workload):
        """A misspelled key used to be ignored, building the table at the
        size the trace implies instead of the size asked for."""
        _, _, train, _ = store_workload
        config = BandanaConfig(total_cache_vectors=200, tune_thresholds=False)
        with pytest.raises(ValueError) as error:
            BandanaStore.build(
                train, config, num_vectors={"alpah": 4096, "beta": 4096}
            )
        message = str(error.value)
        assert "'alpah'" in message and "['alpha', 'beta']" in message

    @pytest.mark.parametrize(
        "size, error", [(4096.9, TypeError), (True, TypeError), (0, ValueError)]
    )
    def test_num_vectors_must_be_an_integer(self, store_workload, size, error):
        """A fractional size used to be truncated (4096.9 built 4096 vectors)."""
        _, _, train, _ = store_workload
        config = BandanaConfig(total_cache_vectors=200, tune_thresholds=False)
        with pytest.raises(error, match=r"num_vectors\['alpha'\]"):
            BandanaStore.build(
                train, config, num_vectors={"alpha": size, "beta": 4096}
            )

    @pytest.mark.parametrize("size", [8192, np.int64(8192)])
    def test_num_vectors_sets_the_table_size(self, store_workload, size):
        _, _, train, _ = store_workload
        config = BandanaConfig(
            total_cache_vectors=200, tune_thresholds=False, shp_iterations=2
        )
        store = BandanaStore.build(
            train, config, num_vectors={"alpha": size, "beta": 4096}
        )
        assert store.tables["alpha"].layout.num_vectors == 8192
        assert store.tables["alpha"].access_counts.shape == (8192,)

    def test_tables_num_vectors_omits_keep_their_trace_size(self, store_workload):
        _, _, train, _ = store_workload
        config = BandanaConfig(
            total_cache_vectors=200, tune_thresholds=False, shp_iterations=2
        )
        store = BandanaStore.build(train, config, num_vectors={"alpha": 8192})
        assert store.tables["alpha"].layout.num_vectors == 8192
        assert store.tables["beta"].layout.num_vectors == train["beta"].num_vectors

    def test_num_vectors_below_the_trace_raises(self, store_workload):
        _, _, train, _ = store_workload
        config = BandanaConfig(total_cache_vectors=200, tune_thresholds=False)
        too_small = train["alpha"].num_vectors - 1
        with pytest.raises(ValueError, match="trace references"):
            BandanaStore.build(train, config, num_vectors={"alpha": too_small})

    def test_every_table_is_placed_by_shp(self, built_store, store_workload):
        specs, _, train, _ = store_workload
        config = built_store.config
        partitioner = SHPPartitioner(
            vectors_per_block=config.vectors_per_block,
            num_iterations=config.shp_iterations,
            seed=config.seed,
        )
        for name, trace in train.items():
            # A tuned build trains SHP on the head; the tuner replays the tail.
            head, _ = trace.split(TUNING_HOLDOUT)
            expected = partitioner.partition(specs[name].num_vectors, trace=head)
            np.testing.assert_array_equal(
                built_store.tables[name].layout.order,
                expected.layout(config.vectors_per_block).order,
            )

    def test_dram_budget_is_split_on_hit_rate_curves(self, built_store, store_workload):
        _, _, train, _ = store_workload
        curves = {name: hit_rate_curve(trace) for name, trace in train.items()}
        expected = allocate_dram_budget(curves, built_store.config.total_cache_vectors)
        assert {
            name: state.cache_config.cache_size_vectors
            for name, state in built_store.tables.items()
        } == expected


def untuned_build_digests():
    """Per default threshold, an untuned store's stage chain and one sha256
    over all it covers, captured before tuned builds held out a tail of the
    training trace: an untuned build must not move."""
    specs, _, train, evaluation = make_store_workload()
    digests = {}
    for threshold in (0.0, 2.0, 50.0):
        config = BandanaConfig(
            total_cache_vectors=800,
            shp_iterations=6,
            tune_thresholds=False,
            default_threshold=threshold,
            seed=0,
        )
        store = BandanaStore.build(
            train, config, num_vectors={n: s.num_vectors for n, s in specs.items()}
        )
        result = simulate_store(store, evaluation)
        digest = hashlib.sha256()
        for name, state in store.tables.items():
            digest.update(name.encode())
            digest.update(state.layout.order.astype("<i8").tobytes())
            digest.update(state.access_counts.astype("<i8").tobytes())
            digest.update(
                repr((state.cache_config.cache_size_vectors, state.cache_config.threshold)).encode()
            )
            table = result.per_table[name]
            digest.update(repr(counters(table.stats)).encode())
            digest.update(repr(counters(table.baseline_stats)).encode())
            digest.update(np.array(state.engine.cache.keys(), dtype="<i8").tobytes())
        digests[threshold] = {
            **store_stages(store, [train, evaluation], result),
            "digest": digest.hexdigest(),
        }
    return digests


class TestTuningHoldout:
    """A tuned build fits placement and counts on the head of each training
    trace and tunes on the held-out tail; an untuned build uses it whole."""

    def test_untuned_build_is_unchanged(self):
        golden("untuned_build_digests")

    def test_counts_come_from_the_head(self, built_store, store_workload):
        specs, _, train, _ = store_workload
        for name, trace in train.items():
            head, _ = trace.split(TUNING_HOLDOUT)
            expected = np.zeros(specs[name].num_vectors, dtype=np.int64)
            expected[: head.num_vectors] = access_counts(head)
            np.testing.assert_array_equal(built_store.tables[name].access_counts, expected)

    def test_tuner_replays_the_tail(self, built_store, store_workload):
        _, _, train, _ = store_workload
        config = built_store.config
        tuner = MiniatureCacheTuner(
            sampling_rate=config.mini_cache_sampling_rate,
            seed=config.seed,
            thresholds=config.candidate_thresholds,
            vector_bytes=config.vector_bytes,
        )
        for name, trace in train.items():
            state = built_store.tables[name]
            _, tail = trace.split(TUNING_HOLDOUT)
            selection = tuner.select_threshold(
                tail, state.layout, state.access_counts, state.cache_config.cache_size_vectors
            )
            assert state.cache_config.threshold == selection.threshold

    def test_a_single_query_table_fits_and_tunes_on_its_whole_trace(self):
        queries = [np.arange(0, 64, 3, dtype=np.int64)]
        train = ModelTrace({"solo": Trace(queries, num_vectors=64)})
        config = BandanaConfig(total_cache_vectors=32, shp_iterations=2)
        store = BandanaStore.build(train, config)
        expected = np.zeros(64, dtype=np.int64)
        expected[queries[0]] = 1
        np.testing.assert_array_equal(store.tables["solo"].access_counts, expected)


class TestServing:
    def test_lookup_returns_vectors(self, built_store):
        values = built_store.lookup("alpha", [1, 2, 3])
        assert values.shape == (3, 16)
        stats = built_store.tables["alpha"].stats
        assert stats.lookups == 3

    def test_lookup_unknown_table(self, built_store):
        with pytest.raises(KeyError):
            built_store.lookup("gamma", [1])

    def test_lookup_request_multi_table(self, built_store):
        out = built_store.lookup_request({"alpha": [1], "beta": [2, 3]})
        assert out["alpha"].shape == (1, 16)
        assert out["beta"].shape == (2, 16)

    def test_pooled_features_shape(self, built_store):
        built_store.reset_serving_state()
        features = built_store.pooled_features({"alpha": [1, 2], "beta": [3]})
        assert features.shape == (32,)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"beta": [5000]}, IndexError),
            ({"beta": [1.7]}, TypeError),
            ({"beta": [[1, 2], [3, 4]]}, ValueError),
            ({"gamma": [1]}, KeyError),
        ],
        ids=["out-of-range", "float", "2-d", "unknown-table"],
    )
    def test_rejected_request_serves_no_table(self, built_store, bad, error):
        """A request is validated whole: an earlier table is not served first."""
        for serve in (built_store.lookup_request, built_store.pooled_features):
            built_store.reset_serving_state()
            with pytest.raises(error):
                serve({"alpha": [1, 2], **bad})
            assert built_store.aggregate_stats().lookups == 0
            assert built_store.aggregate_stats().block_reads == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda store: store.lookup_batch("gamma", [[1]]),
            lambda store: store.baseline_block_reads(ModelTrace({"gamma": Trace([[1]])})),
            lambda store: store.swap_layout("gamma", store.tables["alpha"].layout),
            lambda store: simulate_store(store, ModelTrace({"gamma": Trace([[1]])})),
        ],
        ids=["lookup-batch", "baseline", "swap-layout", "simulate-store"],
    )
    def test_unknown_table_rejected_everywhere(self, built_store, call):
        built_store.reset_serving_state()
        with pytest.raises(KeyError):
            call(built_store)
        assert built_store.aggregate_stats().lookups == 0
        assert built_store.aggregate_stats().block_reads == 0

    def test_simulate_store_checks_every_table_before_replaying(self, built_store):
        # Regression: the known tables used to be replayed first, so the run
        # counted their lookups and then failed with a bare KeyError('gamma').
        built_store.reset_serving_state()
        built_store.lookup_batch("alpha", [[1, 2]])
        before = built_store.aggregate_stats().counters()
        trace = ModelTrace({"alpha": Trace([[1], [3]]), "gamma": Trace([[1]])})
        with pytest.raises(
            KeyError, match=r"unknown table 'gamma'; known tables: \['alpha', 'beta'\]"
        ):
            simulate_store(built_store, trace, reset_first=False)
        assert built_store.aggregate_stats().counters() == before

    def test_pooled_features_serve_like_lookup_request(self, built_store):
        """Same counters as ``lookup_request``; sum-pooled in table registration order."""
        request = {"beta": [3], "alpha": [1, 2, 2]}
        built_store.reset_serving_state()
        vectors = built_store.lookup_request(request)
        served = {name: counters(state.stats) for name, state in built_store.tables.items()}
        built_store.reset_serving_state()
        features = built_store.pooled_features(request)
        assert {
            name: counters(state.stats) for name, state in built_store.tables.items()
        } == served
        np.testing.assert_allclose(
            features,
            # Pooling sums in float32, whatever the vectors' element dtype.
            np.concatenate(
                [vectors[name].astype(np.float32).sum(axis=0) for name in ("alpha", "beta")]
            ),
            rtol=1e-6,
        )

    def test_cache_hits_on_repeat(self, built_store):
        built_store.reset_serving_state()
        built_store.lookup("alpha", [5])
        built_store.lookup("alpha", [5])
        stats = built_store.tables["alpha"].stats
        assert stats.hits >= 1

    def test_reset_serving_state(self, built_store):
        built_store.lookup("alpha", [1])
        built_store.reset_serving_state()
        assert built_store.aggregate_stats().lookups == 0
        assert built_store.aggregate_stats().block_reads == 0

    def test_lookup_counting_mode_without_model(self, store_workload):
        specs, _, train, _ = store_workload
        config = BandanaConfig(
            total_cache_vectors=200, tune_thresholds=False, shp_iterations=2
        )
        store = BandanaStore.build(
            train, config, num_vectors={n: s.num_vectors for n, s in specs.items()}
        )
        assert store.lookup("alpha", [1, 2]) is None
        assert store.aggregate_stats().lookups == 2


def test_lookup_request_matches_per_table_lookups():
    """Serving zipped requests ≡ serving each table's queries by ``lookup``."""
    request_store, trace = build_store(7)
    lookup_store, _ = build_store(7)
    for request in trace.requests():
        request_store.lookup_request(request)
        for name, ids in request.items():
            lookup_store.lookup(name, ids)
    for name in trace:
        by_request, by_lookup = request_store.tables[name], lookup_store.tables[name]
        assert counters(by_request.stats) == counters(by_lookup.stats), name
        assert by_request.engine.cache.keys() == by_lookup.engine.cache.keys(), name


class TestServingAttribution:
    """The PR 1 attribution note, pinned as tests.

    Engine-backed serving keeps the pending-prefetch set across calls, so a
    stream served in many ``lookup_batch`` calls must count prefetch hits
    exactly like one uninterrupted replay of the concatenated stream — and
    ``reset_serving_state`` must restore a clean slate that reproduces the
    same counters again.
    """

    @staticmethod
    def _reference_uninterrupted(store, name, queries):
        from repro.caching.replay import replay_table_cache
        from repro.caching.policies import AccessThresholdPolicy

        state = store.tables[name]
        policy = AccessThresholdPolicy(
            state.access_counts, state.cache_config.threshold
        )
        return replay_table_cache(
            queries,
            state.layout,
            policy,
            cache_size=state.cache_config.cache_size_vectors,
            vector_bytes=store.config.vector_bytes,
        )

    @staticmethod
    def _counters(stats):
        return stats.counters()

    @pytest.fixture()
    def prefetching_store(self, store_workload):
        """A store whose admission threshold actually admits prefetches."""
        specs, _, train, _ = store_workload
        config = BandanaConfig(
            total_cache_vectors=800,
            tune_thresholds=False,
            default_threshold=0.0,  # admit every trained vector
            shp_iterations=4,
        )
        return BandanaStore.build(
            train, config, num_vectors={n: s.num_vectors for n, s in specs.items()}
        )

    def test_multi_call_lookup_batch_matches_uninterrupted_replay(
        self, prefetching_store, store_workload
    ):
        built_store = prefetching_store
        _, _, _, evaluation = store_workload
        queries = evaluation["alpha"].queries
        # Serve the stream in five separate batches (plus a few per-query
        # lookups in the middle) — attribution must survive the call splits.
        fifth = max(1, len(queries) // 5)
        served = 0
        while served < len(queries):
            chunk = queries[served : served + fifth]
            if served // fifth == 2:
                for query in chunk:
                    built_store.lookup("alpha", query)
            else:
                built_store.lookup_batch("alpha", chunk)
            served += len(chunk)
        reference = self._reference_uninterrupted(built_store, "alpha", queries)
        stats = built_store.tables["alpha"].stats
        assert self._counters(stats) == self._counters(reference)
        assert stats.prefetch_hits == reference.prefetch_hits > 0

    def test_reset_serving_state_restores_clean_slate(
        self, built_store, store_workload
    ):
        _, _, _, evaluation = store_workload
        built_store.reset_serving_state()
        queries = evaluation["beta"].queries
        built_store.lookup_batch("beta", queries)
        first = self._counters(built_store.tables["beta"].stats)
        first_engine = built_store.tables["beta"].engine

        built_store.reset_serving_state()
        state = built_store.tables["beta"]
        assert state.stats.lookups == 0 and state.stats.prefetch_admitted == 0
        assert state.engine is None  # rebuilt lazily against the fresh stats
        assert state.stats.block_reads == 0

        built_store.lookup_batch("beta", queries)
        assert self._counters(built_store.tables["beta"].stats) == first
        assert built_store.tables["beta"].engine is not first_engine


class TestShardAndRestart:
    """``shard`` (one cluster node's store) and ``cold_restart`` (its crash)."""

    def test_owning_every_block_gets_the_whole_budget(self):
        store, trace = build_store(0)
        shard = store.shard(
            {name: state.layout.num_blocks for name, state in store.tables.items()}
        )
        assert list(shard.tables) == list(store.tables)
        for name, state in shard.tables.items():
            assert state.cache_config == store.tables[name].cache_config
            assert state.engine is None and counters(state.stats) == counters(ReplayStats())
        # A whole shard serves counter for counter like the store it came from.
        for name, table_trace in trace.items():
            store.lookup_batch(name, table_trace.queries)
            shard.lookup_batch(name, table_trace.queries)
            assert shard.tables[name].stats == store.tables[name].stats, name

    @pytest.mark.parametrize("owned, budget", [(1, 2), (2, 3), (3, 5), (4, 6)])
    def test_partial_ownership_rounds_half_up(self, owned, budget):
        store, _ = build_store(0)
        state = store.tables["t-noprefetch"]
        state.layout = BlockLayout.identity(32, 8)  # 4 blocks
        state.cache_config = TableCacheConfig(cache_size_vectors=6)
        shard = store.shard({"t-noprefetch": owned})
        assert shard.tables["t-noprefetch"].cache_config.cache_size_vectors == budget
        assert shard.engine("t-noprefetch").cache.capacity == budget

    def test_tables_owning_no_block_are_absent(self):
        store, _ = build_store(0)
        shard = store.shard({"t-shadow": 1, "t-threshold": 0})
        assert list(shard.tables) == ["t-shadow"]
        with pytest.raises(KeyError, match="unknown table"):
            shard.lookup("t-threshold", [0])
        with pytest.raises(ValueError, match="owned_blocks"):
            store.shard({"t-shadow": -1})

    @pytest.mark.parametrize(
        "owned",
        [float("nan"), float("inf"), float("-inf"), True, 2.5, "3", None, -1],
        ids=repr,
    )
    def test_hostile_owned_count_is_rejected_naming_the_table(self, owned):
        store, trace = build_store(0)
        store.lookup_batch("t-shadow", trace["t-shadow"].queries)
        served = counters(store.tables["t-shadow"].stats)
        field = re.escape("owned_blocks['t-shadow']")
        with pytest.raises((TypeError, ValueError), match=field):
            store.shard({"t-threshold": 1, "t-shadow": owned})
        # The host store is untouched by the refused shard.
        assert counters(store.tables["t-shadow"].stats) == served
        assert store.tables["t-shadow"].policy.shadow.keys()

    def test_unknown_table_is_rejected(self):
        store, _ = build_store(0)
        with pytest.raises(KeyError, match="unknown table"):
            store.shard({"no-such-table": 1})

    def test_numpy_integer_counts_are_accepted(self):
        store, _ = build_store(0)
        num_blocks = store.tables["t-noprefetch"].layout.num_blocks
        shard = store.shard({"t-noprefetch": np.int64(num_blocks)})
        assert shard.tables["t-noprefetch"].cache_config == (
            store.tables["t-noprefetch"].cache_config
        )

    def test_policies_are_independent_reset_copies(self):
        store, trace = build_store(0)
        store.lookup_batch("t-shadow", trace["t-shadow"].queries)
        host_shadow = store.tables["t-shadow"].policy.shadow.keys()
        assert host_shadow
        shard = store.shard({name: 1 for name in store.tables})
        for name, state in shard.tables.items():
            host = store.tables[name].policy
            assert state.policy is not host and type(state.policy) is type(host)
        assert shard.tables["t-shadow"].policy.shadow.keys() == []
        assert store.tables["t-shadow"].policy.shadow.keys() == host_shadow
        assert shard.tables["t-threshold"].policy.threshold == (
            store.tables["t-threshold"].policy.threshold
        )

    def test_layouts_are_shared_not_copied(self):
        store, _ = build_store(0)
        shard = store.shard({name: 1 for name in store.tables})
        for name, state in shard.tables.items():
            assert state.layout is store.tables[name].layout
            assert state.access_counts is store.tables[name].access_counts
            assert state.stats is not store.tables[name].stats

    def test_cold_restart_keeps_stats_and_loses_residency(self):
        store, trace = build_store(0)
        queries = trace["t-shadow"].queries
        store.lookup_batch("t-shadow", queries)
        state = store.tables["t-shadow"]
        served, stats, engine = counters(state.stats), state.stats, state.engine
        store.cold_restart()
        assert state.stats is stats and counters(stats) == served
        assert state.engine is None and state.policy.shadow.keys() == []
        # Cold again: the replay after the restart reads what a fresh store reads.
        store.lookup_batch("t-shadow", queries)
        assert state.engine is not engine
        assert stats.misses == 2 * served[2]


class TestEndToEndBandwidth:
    def test_store_beats_baseline(self, built_store, store_workload):
        """The full Bandana pipeline must read fewer NVM blocks than the
        no-prefetch baseline on a held-out trace (the paper's headline claim)."""
        _, _, _, evaluation = store_workload
        result = simulate_store(built_store, evaluation)
        assert result.total_block_reads > 0
        assert result.bandwidth_increase > 0.0
        assert 0.0 < result.aggregate_hit_rate <= 1.0

    def test_effective_bandwidth_above_baseline_fraction(self, built_store, store_workload):
        _, _, _, evaluation = store_workload
        simulate_store(built_store, evaluation)
        bandwidth = built_store.effective_bandwidth()
        # The baseline policy's effective bandwidth is vector/block = 1/32; a
        # working Bandana configuration must do better.
        assert bandwidth > 128 / 4096
