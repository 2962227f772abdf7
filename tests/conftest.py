"""Shared fixtures: a small synthetic table/workload reused across the suite.

The fixtures are deliberately tiny (a few thousand vectors, tens of thousands
of lookups) so the full suite runs in well under a minute, while still
exercising the same code paths the benchmarks use at larger scale.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.caching.lru import LRUCache
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    CombinedPolicy,
    InsertAtPositionPolicy,
    NoPrefetchPolicy,
    ShadowAdmissionPolicy,
)
from repro.caching.replay import ReplayStats
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.embeddings import EmbeddingTable, synthesize_topic_vectors
from repro.nvm.block import BlockLayout
from repro.partitioning import SHPPartitioner
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.tracing import Tracer
from repro.utils.sampling import UNIFORM_BITS
from repro.workloads import SyntheticTraceGenerator, scaled_table_specs
from repro.workloads.tables_spec import TableSpec
from repro.workloads.characterization import access_counts
from repro.workloads.trace import ModelTrace, Trace
from repro_lint import LintResult, lint_paths

VECTORS_PER_BLOCK = 32


class InspectableLRUCache(LRUCache):
    """The reference loop's :class:`LRUCache` plus what only tests inspect.

    Size, iteration, the MRU → LRU key order, the eviction count, and the
    ``touch`` (promote on hit), ``remove`` and ``clear`` mutators.  The
    reference loop itself needs only ``get``, ``peek``, ``insert`` and
    membership.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: Number of entries evicted so far (reset by ``clear``).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._priority)

    def __iter__(self):
        return iter(self._priority)

    def keys(self):
        """Resident keys ordered from most- to least-recently prioritised."""
        return sorted(self._priority, key=lambda k: -self._priority[k])

    def touch(self, key: int) -> bool:
        """Alias of ``get`` (promote on hit)."""
        return self.get(key)

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present (stale heap entries are cleaned lazily)."""
        return self._priority.pop(key, None) is not None

    def clear(self) -> None:
        """Drop all entries and reset the eviction count."""
        self._priority.clear()
        self._heap.clear()
        self._clock = 0.0
        self.evictions = 0

    def _evict_one(self):
        key = super()._evict_one()
        if key is not None:
            self.evictions += 1
        return key

#: Block geometry of :func:`build_store`'s tables.
STORE_VECTORS_PER_BLOCK = 8

#: One :func:`build_store` table per built-in policy, with cache sizes spanning
#: unlimited, comfortable, block-sized, churning and degenerate regimes (None
#: means "as large as the table").  A store serves only policies that admit
#: at the top of the queue, so the two positional policies sit at position 0.
POLICY_TABLES = {
    "t-noprefetch": (lambda counts: NoPrefetchPolicy(), 30),
    "t-cacheall": (lambda counts: CacheAllBlockPolicy(), None),
    "t-insertpos": (lambda counts: InsertAtPositionPolicy(0.0), 9),
    "t-shadow": (lambda counts: ShadowAdmissionPolicy(30, 1.5), 3),
    "t-combined": (lambda counts: CombinedPolicy(30, position=0.0), 1),
    "t-threshold": (lambda counts: AccessThresholdPolicy(counts, 10), 48),
}


def make_spec(
    name: str = "test-table",
    num_vectors: int = 4096,
    avg_lookups: float = 24.0,
    compulsory: float = 0.15,
    alpha: float = 0.9,
) -> TableSpec:
    """A small table spec usable by any test."""
    return TableSpec(
        name=name,
        num_vectors=num_vectors,
        avg_lookups_per_query=avg_lookups,
        lookup_share=0.25,
        compulsory_miss_rate=compulsory,
        popularity_alpha=alpha,
        num_topics=64,
    )


def count_python_calls(function):
    """Run ``function()``; return (its result, Python-level calls it made).

    ``sys.setprofile`` ``call`` events: a pure function of the code and the
    seed, so the call-budget tests fence host cost without a wall clock.
    """
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(on_event)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return result, calls


_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def scalar_uniform(key: int, counter: int, slot: int) -> float:
    """``repro.utils.sampling.counter_uniforms(key, counter, slot)`` in pure
    Python integers: the scalar splitmix64 the synthesis oracles draw with."""
    z = (key + ((counter << 32 | slot) + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> (64 - UNIFORM_BITS)) / 2**UNIFORM_BITS


def average_fanout(layout: BlockLayout, queries) -> float:
    """Mean number of distinct blocks a query reads under ``layout`` (SHP's
    objective, the paper's Eq. 3); 0.0 for no queries."""
    fanouts = [np.unique(layout.block_of(query)).size if len(query) else 0 for query in queries]
    return float(np.mean(fanouts)) if fanouts else 0.0


def counters(stats: ReplayStats):
    """Every replay counter, simulated device latency included."""
    return stats.counters() + (stats.total_latency_us,)


def build_store(seed: int):
    """A multi-table store (one table per policy) plus its evaluation trace.

    Layouts, cache sizes, traces and access counts are randomized per seed;
    identical seeds produce identical stores, so two builds can be replayed
    by different paths and compared counter for counter.
    """
    rng = np.random.default_rng(seed)
    config = BandanaConfig(
        total_cache_vectors=100,
        tune_thresholds=False,
        vector_bytes=128,
        block_bytes=STORE_VECTORS_PER_BLOCK * 128,
    )
    tables = {}
    traces = {}
    for name, (make_policy, size) in POLICY_TABLES.items():
        num_vectors = int(rng.integers(60, 300))
        layout = BlockLayout(
            rng.permutation(num_vectors).astype(np.int64), STORE_VECTORS_PER_BLOCK
        )
        counts = rng.integers(0, 30, size=num_vectors).astype(np.int64)
        queries = [
            rng.integers(0, num_vectors, size=int(rng.integers(1, 10))).astype(np.int64)
            for _ in range(int(rng.integers(60, 120)))
        ]
        cache_size = num_vectors if size is None else min(size, num_vectors)
        tables[name] = BandanaTableState(
            name=name,
            layout=layout,
            policy=make_policy(counts),
            cache_config=TableCacheConfig(cache_size_vectors=cache_size),
            access_counts=counts,
            stats=ReplayStats(
                vector_bytes=config.vector_bytes, block_bytes=config.block_bytes
            ),
        )
        traces[name] = Trace(queries, num_vectors=num_vectors)
    return BandanaStore(config, tables), ModelTrace(traces)


def trace_digest(trace: Trace) -> dict:
    """Shape and sha256 of a trace: its ``flatten()`` bytes, then the query lengths."""
    lengths = np.array([query.size for query in trace.queries], dtype=np.int64)
    sha = hashlib.sha256(trace.flatten().astype("<i8").tobytes())
    sha.update(lengths.astype("<i8").tobytes())
    return {
        "queries": len(trace),
        "lookups": int(lengths.sum()),
        "sha256": sha.hexdigest(),
    }


# ---------------------------------------------------------------- golden ledger
#: Every pin of the suite: ``{name: {"producer": "tests.<module>:<function>",
#: "value": <its output>}}``, written only by ``python -m tests.goldens``.
GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def load_goldens() -> Dict[str, Any]:
    return json.loads(GOLDENS_PATH.read_text())


def dump_goldens(ledger: Dict[str, Any]) -> str:
    return json.dumps(ledger, indent=2) + "\n"


def produce_golden(entry: Dict[str, Any]) -> Any:
    """Run ``entry``'s producer; its output as JSON stores it (tuples become
    lists, float keys strings)."""
    module, function = entry["producer"].split(":")
    return json.loads(json.dumps(getattr(importlib.import_module(module), function)()))


def first_difference(expected: Any, got: Any, path: str = "") -> Optional[str]:
    """The first key, in ``expected``'s order, where ``got`` differs, with
    both values (exact: ``1`` is not ``1.0``); ``None`` when equal."""
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        expected, got = dict(enumerate(expected)), dict(enumerate(got))
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in [*expected, *(key for key in got if key not in expected)]:
            where = f"{path} > {key}" if path else str(key)
            found = first_difference(expected.get(key, "<none>"), got.get(key, "<none>"), where)
            if found is not None:
                return found
        return None
    if type(expected) is type(got) and expected == got:
        return None
    return f"{path or 'value'}: ledger {expected!r}, produced {got!r}"


def check_golden(name: str, expected: Any, got: Any) -> None:
    __tracebackhide__ = True
    difference = first_difference(expected, got)
    if difference is not None:
        raise AssertionError(
            f"golden {name!r} differs at {difference} "
            f"(a deliberate change re-pins with: python -m tests.goldens --only {name})"
        )


def golden(name: str) -> Any:
    """Run ledger entry ``name``'s producer, check its output against the
    entry and return it."""
    __tracebackhide__ = True
    entry = load_goldens()[name]
    produced = produce_golden(entry)
    check_golden(name, entry["value"], produced)
    return produced


def unnamed_changes(old: Dict[str, Any], new: Dict[str, Any], added: List[str]) -> List[str]:
    """Entries added, removed or changed from ledger ``old`` to ``new`` that
    no line of ``added`` (the lines added to CHANGES.md) names as a word."""
    return [
        name
        for name in {**old, **new}
        if old.get(name) != new.get(name)
        and not any(re.search(rf"\b{re.escape(name)}\b", line) for line in added)
    ]


STAGES = ("trace", "layout", "access_counts", "cache", "counters", "cache_keys")


def stage_chain(traces, *stages) -> Dict[str, str]:
    """A pin's stage chain: one sha256 per :data:`STAGES` entry, for the
    ``traces`` and then each of ``stages`` (one item per table; arrays hash
    as little-endian int64, anything else by repr), as many as are given."""
    digests = []
    for items in ([trace_digest(trace)["sha256"] for trace in traces], *stages):
        sha = hashlib.sha256()
        for item in items:
            is_array = isinstance(item, np.ndarray)
            sha.update(item.astype("<i8").tobytes() if is_array else repr(item).encode())
        digests.append(sha.hexdigest())
    return dict(zip(STAGES, digests))


def store_stages(store: BandanaStore, traces: List[ModelTrace], result) -> Dict[str, str]:
    """The whole stage chain of ``store``, built and served on ``traces``
    into the :func:`~repro.simulation.simulate_store` ``result``."""
    states = store.tables.values()
    served = [result.per_table[state.name] for state in states]
    return stage_chain(
        [model[state.name] for model in traces for state in states],
        [state.layout.order for state in states],
        [state.access_counts for state in states],
        [(s.cache_config.cache_size_vectors, s.cache_config.threshold) for s in states],
        [(counters(table.stats), counters(table.baseline_stats)) for table in served],
        [np.array(state.engine.cache.keys(), dtype=np.int64) for state in states],
    )


def fold_run(sha, run, traced: bool = True) -> set:
    """Fold ``run(tracing=tracer)``'s report and, when ``traced``, every span
    (ids, parent, name, exact start and end, sorted attributes) into ``sha``;
    return the span names."""
    tracer = Tracer() if traced else None
    sha.update(json.dumps(run(tracing=tracer).to_dict(), sort_keys=True).encode())
    spans = [span for trace in tracer.traces.values() for span in trace.spans] if traced else []
    for span in spans:
        sha.update(
            repr(
                (
                    span.span_id,
                    span.request_id,
                    span.parent_id,
                    span.name,
                    span.t_start_us.hex(),
                    span.t_end_us.hex(),
                    sorted(span.attributes.items()),
                )
            ).encode()
        )
    return {span.name for span in spans}


def _replay_case(num_vectors: int, train: Trace, evaluation: Trace, iterations: int):
    """(SHP layout trained on ``train``, its access counts, the queries to replay)."""
    partitioner = SHPPartitioner(
        vectors_per_block=VECTORS_PER_BLOCK, num_iterations=iterations, seed=3
    )
    layout = partitioner.partition(num_vectors, trace=train).layout(VECTORS_PER_BLOCK)
    return layout, access_counts(train), evaluation.queries


def drift_replay_case():
    """``drift-repartition``'s shape: a 4 096-vector drift window, split in half."""
    trace = generate_scenario_trace(
        ScenarioConfig(kind="drift", num_queries=400, num_vectors=4096, seed=3)
    )
    train, evaluation = trace.split(0.5)
    return _replay_case(4096, train, evaluation, iterations=8)


def table1_replay_case():
    """The serving workloads' shape: table1 at 1/2000 (5 000 vectors)."""
    spec = scaled_table_specs(1 / 2000, names=["table1"])["table1"]
    generator = SyntheticTraceGenerator(spec, seed=3)
    train, evaluation = generator.generate(600), generator.generate(300)
    return _replay_case(spec.num_vectors, train, evaluation, iterations=16)


@pytest.fixture(scope="session")
def small_spec() -> TableSpec:
    return make_spec()


@pytest.fixture(scope="session")
def generator(small_spec) -> SyntheticTraceGenerator:
    return SyntheticTraceGenerator(small_spec, seed=7, expected_lookups=6000)


@pytest.fixture(scope="session")
def train_trace(generator) -> Trace:
    return generator.generate_lookups(12000)


@pytest.fixture(scope="session")
def eval_trace(generator) -> Trace:
    return generator.generate_lookups(6000)


@pytest.fixture(scope="session")
def shp_layout(small_spec, train_trace):
    partitioner = SHPPartitioner(
        vectors_per_block=VECTORS_PER_BLOCK, num_iterations=8, seed=0
    )
    result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
    return result.layout(VECTORS_PER_BLOCK)


@pytest.fixture(scope="session")
def embedding_table(small_spec, generator) -> EmbeddingTable:
    values = synthesize_topic_vectors(generator.topic_of(), dim=16, noise=0.4, seed=3)
    return EmbeddingTable(small_spec.name, small_spec.num_vectors, dim=16, values=values)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def repo_lint_result() -> LintResult:
    """One in-process repro-lint run over ``src``, ``tests`` and ``benchmarks``.

    Both whole-tree lint gates read it, so the suite lints the tree once.
    """
    root = Path(__file__).resolve().parent.parent
    return lint_paths(["src", "tests", "benchmarks"], root=root)
