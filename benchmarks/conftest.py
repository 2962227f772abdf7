"""Session-scoped fixtures shared by all benchmark harnesses."""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import pytest

from benchmarks.common import BENCH_SCALE, build_bundle

# The per-table figures of the paper focus on the tables with the most
# lookups; the end-to-end figures use all eight.
ALL_TABLES = [f"table{i}" for i in range(1, 9)]
TOP_TABLES = ["table1", "table2", "table6", "table7"]


@pytest.fixture(scope="session")
def bundle():
    """Traces, access counts and SHP layouts for all eight (scaled) tables."""
    return build_bundle(scale=BENCH_SCALE, names=ALL_TABLES, seed=100)


@pytest.fixture(scope="session")
def table2(bundle):
    """The table the paper uses for its per-table cache-policy studies."""
    return bundle["table2"]


@pytest.fixture(scope="session")
def embedding_values(bundle):
    """Synthetic embedding values (topic-correlated geometry) per table.

    Built lazily only for the tables the K-means benchmarks need.
    """
    from repro.embeddings import EmbeddingTable, synthesize_topic_vectors

    cache = {}

    def build(name: str, dim: int = 32) -> EmbeddingTable:
        if name not in cache:
            workload = bundle[name]
            values = synthesize_topic_vectors(
                workload.generator.topic_of(), dim=dim, noise=0.45, seed=7
            )
            cache[name] = EmbeddingTable(name, workload.spec.num_vectors, dim=dim, values=values)
        return cache[name]

    return build
