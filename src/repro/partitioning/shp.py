"""Social Hash Partitioner (SHP): supervised placement from access history.

This is Bandana's placement algorithm of choice (Section 4.2.2).  The training
trace is viewed as a hypergraph: vertices are embedding vectors, hyperedges
are the lookup queries.  The goal is a partition of the vectors into
block-sized groups that minimises the *average fanout* — the number of blocks
a query touches (Equation 3) — so that one 4 KB block read prefetches as many
of a query's vectors as possible.

Following Kabiljo et al. (VLDB'17), the partition is built by recursive
balanced bisection.  Each bisection starts from a random balanced split and
runs a fixed number of refinement iterations; in each iteration every vertex
computes the fanout gain of moving to the other side, both sides are ranked by
gain, and the top pairs are swapped while the combined gain is positive
(swapping preserves balance exactly).  Queries that end up entirely inside one
side are dropped from the sub-problems, which keeps the work per level roughly
proportional to the number of query memberships that are still "cut".

Vectors that never appear in the training trace have zero gain everywhere and
end up wherever balance requires — exactly the "arbitrary locations in blocks
that have free space" behaviour the paper describes, which motivates the
access-threshold admission policy of Section 4.3.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.embeddings.table import EmbeddingTable
from repro.partitioning.base import Partitioner, PartitionResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive
from repro.workloads.trace import Trace


@dataclass
class _SubProblem:
    """One node of the recursive bisection tree.

    ``vertex_ids`` are global vector ids; ``members``/``query_ids`` form the
    flattened membership list of the queries restricted to this vertex set,
    with ``members`` holding *local* vertex indices (0..len(vertex_ids)-1).
    """

    vertex_ids: np.ndarray
    members: np.ndarray
    query_ids: np.ndarray
    num_queries: int
    depth: int


class SHPPartitioner(Partitioner):
    """Recursive-bisection hypergraph partitioner minimising average query fanout.

    Parameters
    ----------
    vectors_per_block:
        Target leaf size; the paper packs 32 vectors (4 KB / 128 B) per block.
    num_iterations:
        Refinement iterations per bisection (the paper uses 16).
    seed:
        Seed of the random initial splits.
    max_queries:
        Optional cap on the number of training queries used (queries beyond
        the cap are ignored); the paper's Figures 9 and 15 sweep this.
    """

    name = "shp"

    def __init__(
        self,
        vectors_per_block: int = 32,
        num_iterations: int = 16,
        seed: int = 0,
        max_queries: Optional[int] = None,
    ) -> None:
        check_positive(vectors_per_block, "vectors_per_block")
        check_positive(num_iterations, "num_iterations")
        if max_queries is not None:
            check_positive(max_queries, "max_queries")
        self.vectors_per_block = int(vectors_per_block)
        self.num_iterations = int(num_iterations)
        self.seed = int(seed)
        self.max_queries = None if max_queries is None else int(max_queries)

    # -------------------------------------------------------------------- API
    def partition(
        self,
        num_vectors: int,
        trace: Optional[Trace] = None,
        table: Optional[EmbeddingTable] = None,
    ) -> PartitionResult:
        num_vectors = self._validate_num_vectors(num_vectors)
        if trace is None:
            raise ValueError("SHPPartitioner requires a training trace")
        if trace.num_vectors > num_vectors:
            raise ValueError(
                "trace references more vectors than the table being partitioned"
            )
        start = time.perf_counter()
        rng = ensure_rng(self.seed)

        members, query_ids, num_queries = self._flatten_queries(trace)
        root = _SubProblem(
            vertex_ids=np.arange(num_vectors, dtype=np.int64),
            members=members,
            query_ids=query_ids,
            num_queries=num_queries,
            depth=0,
        )

        order_parts: List[np.ndarray] = []
        total_swaps = 0
        max_depth = 0
        # Depth-first, left child first, so the final order lays sibling leaves
        # next to each other (adjacent blocks share an ancestor split).
        stack: List[_SubProblem] = [root]
        while stack:
            problem = stack.pop()
            max_depth = max(max_depth, problem.depth)
            if problem.vertex_ids.size <= self.vectors_per_block:
                order_parts.append(problem.vertex_ids)
                continue
            side, swaps = self._bisect(problem, rng)
            total_swaps += swaps
            left, right = self._split(problem, side)
            # Push right first so the left child is processed first (LIFO).
            stack.append(right)
            stack.append(left)

        order = np.concatenate(order_parts).astype(np.int64)
        return PartitionResult(
            order=order,
            runtime_seconds=self._timed(start),
            algorithm=self.name,
            details={
                "num_iterations": self.num_iterations,
                "num_training_queries": num_queries,
                "total_swaps": int(total_swaps),
                "max_depth": int(max_depth),
            },
        )

    # ---------------------------------------------------------------- internal
    def _flatten_queries(self, trace: Trace) -> Tuple[np.ndarray, np.ndarray, int]:
        """Flatten the training queries into (member ids, query ids) arrays.

        Queries with fewer than two distinct ids cannot influence fanout and
        are dropped up front.
        """
        queries = trace.queries
        if self.max_queries is not None:
            queries = queries[: self.max_queries]
        if not queries:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
        # One sort of the whole stream by (query, id) instead of one
        # ``np.unique`` per query; a repeat is then equal to its predecessor.
        lengths = np.fromiter(
            (query.size for query in queries), dtype=np.int64, count=len(queries)
        )
        owner = np.repeat(np.arange(len(queries)), lengths)
        members = np.concatenate(queries)
        order = np.lexsort((members, owner))
        members, owner = members[order], owner[order]
        first = np.ones(members.size, dtype=bool)
        first[1:] = (members[1:] != members[:-1]) | (owner[1:] != owner[:-1])
        members, owner = members[first], owner[first]
        # Renumber the queries that keep at least two distinct ids.
        useful = np.bincount(owner, minlength=len(queries)) >= 2
        query_number = np.cumsum(useful) - 1
        kept = useful[owner]
        return members[kept], query_number[owner[kept]], int(useful.sum())

    def _bisect(
        self, problem: _SubProblem, rng: np.random.Generator
    ) -> Tuple[np.ndarray, int]:
        """Refine a balanced bisection of the sub-problem's vertices.

        Returns the side assignment (0/1 per local vertex) and the number of
        swaps performed.
        """
        num_vertices = problem.vertex_ids.size
        half = num_vertices // 2
        # Balanced random initial split: `half` vertices on side 1.
        side = np.zeros(num_vertices, dtype=np.int8)
        side[rng.permutation(num_vertices)[:half]] = 1

        members = problem.members
        query_ids = problem.query_ids
        num_queries = problem.num_queries
        total_swaps = 0
        if members.size == 0 or num_queries == 0:
            return side, 0

        membership_counts = np.bincount(query_ids, minlength=num_queries)
        for _ in range(self.num_iterations):
            member_side = side[members]
            count_side1 = np.bincount(
                query_ids, weights=member_side, minlength=num_queries
            )
            count_side0 = membership_counts - count_side1

            # Per-membership gain of moving that vertex to the other side:
            # leaving a side it occupies alone removes one block from the
            # query's fanout (+1 gain); entering a side the query does not yet
            # touch adds one (-1 gain).
            on_side1 = member_side.astype(bool)
            count_here = np.where(on_side1, count_side1[query_ids], count_side0[query_ids])
            count_there = np.where(on_side1, count_side0[query_ids], count_side1[query_ids])
            contribution = (count_here == 1).astype(np.float64) - (count_there == 0)
            gain = np.bincount(members, weights=contribution, minlength=num_vertices)

            side0_vertices = np.where(side == 0)[0]
            side1_vertices = np.where(side == 1)[0]
            if side0_vertices.size == 0 or side1_vertices.size == 0:
                break
            side0_sorted = side0_vertices[np.argsort(-gain[side0_vertices], kind="stable")]
            side1_sorted = side1_vertices[np.argsort(-gain[side1_vertices], kind="stable")]
            pairs = min(side0_sorted.size, side1_sorted.size)
            combined = gain[side0_sorted[:pairs]] + gain[side1_sorted[:pairs]]
            # Both gain sequences are non-increasing, so the combined gain is
            # non-increasing and the positive prefix is a contiguous block.
            num_swaps = int((combined > 0).sum())
            if num_swaps == 0:
                break
            swap0 = side0_sorted[:num_swaps]
            swap1 = side1_sorted[:num_swaps]
            side[swap0] = 1
            side[swap1] = 0
            total_swaps += num_swaps
        return side, total_swaps

    def _split(
        self, problem: _SubProblem, side: np.ndarray
    ) -> Tuple[_SubProblem, _SubProblem]:
        """Split a sub-problem into its two children given a side assignment."""
        children = []
        for child_side in (0, 1):
            vertex_mask = side == child_side
            child_vertices = problem.vertex_ids[vertex_mask]
            # Local re-indexing of the child's vertices.
            local_index = np.full(problem.vertex_ids.size, -1, dtype=np.int64)
            local_index[np.where(vertex_mask)[0]] = np.arange(child_vertices.size)

            if problem.members.size:
                member_mask = side[problem.members] == child_side
                child_members = local_index[problem.members[member_mask]]
                child_query_ids = problem.query_ids[member_mask]
                # Keep only queries that still have >= 2 members on this side;
                # single-member queries cannot affect any further bisection.
                if child_query_ids.size:
                    counts = np.bincount(child_query_ids)
                    keep = counts[child_query_ids] >= 2
                    child_members = child_members[keep]
                    child_query_ids = child_query_ids[keep]
                    if child_query_ids.size:
                        _, child_query_ids = np.unique(
                            child_query_ids, return_inverse=True
                        )
                        num_child_queries = int(child_query_ids.max()) + 1
                    else:
                        num_child_queries = 0
                else:
                    num_child_queries = 0
            else:
                child_members = np.empty(0, dtype=np.int64)
                child_query_ids = np.empty(0, dtype=np.int64)
                num_child_queries = 0

            children.append(
                _SubProblem(
                    vertex_ids=child_vertices,
                    members=child_members,
                    query_ids=child_query_ids,
                    num_queries=num_child_queries,
                    depth=problem.depth + 1,
                )
            )
        return children[0], children[1]
