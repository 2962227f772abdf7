"""Workload characterisation: the analysis behind the paper's Table 1 and Figure 4.

Given a trace, these helpers compute the per-table statistics the paper
reports — vector counts, average lookups per request, lookup shares,
compulsory-miss rates — and the per-vector access histograms used to motivate
the access-threshold admission policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.workloads.trace import ModelTrace, Trace


@dataclass(frozen=True)
class TableCharacterization:
    """One row of the paper's Table 1, as measured on a trace."""

    name: str
    num_vectors: int
    num_queries: int
    num_lookups: int
    avg_lookups_per_query: float
    lookup_share: float
    compulsory_miss_rate: float
    unique_vectors_accessed: int

    def as_row(self) -> Tuple:
        """Row tuple in the paper's column order (for report printing)."""
        return (
            self.name,
            self.num_vectors,
            round(self.avg_lookups_per_query, 2),
            f"{100 * self.lookup_share:.2f}%",
            f"{100 * self.compulsory_miss_rate:.2f}%",
        )


def access_counts(trace: Trace) -> np.ndarray:
    """Number of times each vector id is looked up in the trace.

    Returns an array of length ``trace.num_vectors``; vectors never accessed
    get zero.  This is the statistic the access-threshold admission policy
    (Section 4.3.2) is keyed on.
    """
    counts = np.zeros(trace.num_vectors, dtype=np.int64)
    flat = trace.flatten()
    if flat.size:
        np.add.at(counts, flat, 1)
    return counts


def compulsory_miss_rate(trace: Trace) -> float:
    """Fraction of lookups that touch a vector for the first time in the trace."""
    num_lookups = trace.num_lookups
    if num_lookups == 0:
        return 0.0
    return trace.unique_vectors().size / num_lookups


def access_histogram(trace: Trace, num_bins: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of per-vector access counts (the paper's Figure 4).

    Returns ``(bin_edges, vectors_per_bin)`` where ``bin_edges`` has
    ``num_bins + 1`` entries and ``vectors_per_bin[i]`` counts the vectors
    whose access count falls in ``[bin_edges[i], bin_edges[i+1])``.  Vectors
    that are never accessed are excluded, matching the paper's plots.
    """
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    counts = access_counts(trace)
    accessed = counts[counts > 0]
    if accessed.size == 0:
        edges = np.linspace(0, 1, num_bins + 1)
        return edges, np.zeros(num_bins, dtype=np.int64)
    edges = np.linspace(0, accessed.max(), num_bins + 1)
    histogram, _ = np.histogram(accessed, bins=edges)
    return edges, histogram.astype(np.int64)


def characterize_table(
    name: str, trace: Trace, lookup_share: Optional[float] = None
) -> TableCharacterization:
    """Compute one Table 1 row from a single table's trace."""
    unique = trace.unique_vectors().size
    num_lookups = trace.num_lookups
    return TableCharacterization(
        name=name,
        num_vectors=trace.num_vectors,
        num_queries=len(trace),
        num_lookups=num_lookups,
        avg_lookups_per_query=trace.avg_lookups_per_query,
        lookup_share=lookup_share if lookup_share is not None else 1.0,
        compulsory_miss_rate=(unique / num_lookups) if num_lookups else 0.0,
        unique_vectors_accessed=unique,
    )


def characterize_model(model_trace: ModelTrace) -> Dict[str, TableCharacterization]:
    """Compute all Table 1 rows for a full-model trace."""
    shares = model_trace.lookup_shares()
    return {
        name: characterize_table(name, trace, lookup_share=shares[name])
        for name, trace in model_trace.items()
    }
