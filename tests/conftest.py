"""Shared fixtures: a small synthetic table/workload reused across the suite.

The fixtures are deliberately tiny (a few thousand vectors, tens of thousands
of lookups) so the full suite runs in well under a minute, while still
exercising the same code paths the benchmarks use at larger scale.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.embeddings import EmbeddingTable, synthesize_topic_vectors
from repro.partitioning import SHPPartitioner
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.workloads import SyntheticTraceGenerator, TableSpec, scaled_table_specs
from repro.workloads.characterization import access_counts
from repro.workloads.trace import Trace

VECTORS_PER_BLOCK = 32


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
    values = synthesize_topic_vectors(
        generator.topic_of(), dim=16, noise=0.4, seed=3, dtype=np.float32
    )
    return EmbeddingTable(
        small_spec.name, small_spec.num_vectors, dim=16, dtype=np.float32, values=values
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
