"""Splitting the DRAM budget across embedding tables.

Each table's LRU hit-rate curve comes from Mattson stack distances over its
training trace (:func:`repro.caching.stack_distance.hit_rate_curve`, every
cache size from one pass; the miniature caches only tune thresholds).
Because the curves are convex (the paper checks this for its workload), a
greedy marginal allocation — repeatedly giving the next chunk of DRAM to the
table whose hit count grows the most — is optimal, and matches the
Dynacache-style static assignment the paper uses (Section 4.3.3, "we
statically assigned the amount of DRAM to assign to each table with the goal
of optimizing the total hit rate").
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.caching.stack_distance import HitRateCurve
from repro.utils.validation import check_int_at_least


def allocation_chunk(total_vectors: int) -> int:
    """The greedy's step for a budget of ``total_vectors``: 1 % of it, at least one vector."""
    return max(1, total_vectors // 100)


def allocate_dram_budget(
    curves: Mapping[str, HitRateCurve],
    total_vectors: int,
) -> Dict[str, int]:
    """Split a DRAM budget (in vectors) across tables to maximise total hits.

    The greedy hands the budget out in chunks of :func:`allocation_chunk`.

    Parameters
    ----------
    curves:
        Per-table hit-rate curves.  ``HitRateCurve.hits_at`` converts a cache
        size into an expected absolute hit count, so tables serving more
        lookups naturally attract more DRAM.
    total_vectors:
        Total DRAM budget, expressed in cached vectors (an integer >= 1).
        (Vector sizes are uniform across the paper's tables, so vectors are a
        faithful budget unit; callers with heterogeneous vector sizes should
        convert to the smallest common unit first.)

    Returns
    -------
    dict mapping table name to its allocated number of cached vectors.  The
    allocations sum to at most ``total_vectors``.
    """
    total_vectors = check_int_at_least(total_vectors, 1, "total_vectors")
    if not curves:
        raise ValueError("curves must not be empty")
    chunk_vectors = allocation_chunk(total_vectors)

    allocation = {name: 0 for name in curves}
    remaining = total_vectors

    while remaining > 0:
        chunk = min(chunk_vectors, remaining)
        best_name = None
        best_gain = 0.0
        for name, curve in curves.items():
            current = allocation[name]
            gain = curve.hits_at(current + chunk) - curve.hits_at(current)
            if gain > best_gain:
                best_gain = gain
                best_name = name
        if best_name is None:
            # No table benefits from more DRAM (all curves saturated): spread
            # the remainder evenly so the budget is still honoured.
            for name in allocation:
                allocation[name] += remaining // len(allocation)
            break
        allocation[best_name] += chunk
        remaining -= chunk
    return allocation
