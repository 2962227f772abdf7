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

Level-synchronous refinement
----------------------------
The bisection tree is not walked node by node: all nodes of one depth are
refined together on flat arrays, so a 10 000-vector table costs about
``depth × num_iterations`` passes over arrays instead of one NumPy round-trip
per tree node (511 of them, most holding a few dozen vertices).  The result is
the same array the depth-first, left-child-first walk produces
(``tests/test_partitioning.py`` keeps that walk as ``_partition_reference``),
because of four invariants:

* **The tree's shape is static.**  A swap moves as many vertices one way as
  the other, so a node of ``n`` vertices always splits into ``n - n // 2``
  (side 0, the left child) and ``n // 2`` (side 1).  Sizes, depths and
  ``max_depth`` are a function of ``(num_vectors, vectors_per_block)`` alone.
  That is why the random initial splits are *hoisted*: :func:`_draw_levels`
  makes every ``rng.permutation(n)[: n // 2]`` up front, in the depth-first
  order the seeded stream has always been consumed in, and refinement is then
  free to run level by level.
* **Children replace their parent in place.**  One array holds every vertex
  id, arranged by node; splitting a level is one stable arrangement of it by
  (node, side), and a leaf just stays where it is.  After the last level the
  array *is* the order.
* **A converged node is idempotent.**  An iteration that swaps nothing leaves
  the sides as they were, so the next one computes the same gains and swaps
  nothing again: stopping at the first swap-free iteration is an optimisation,
  not semantics, and nodes may be carried along or dropped freely.  Only *hot*
  nodes — those that still hold a query membership — enter refinement at all
  (the others keep their initial draw); *converged* nodes — hot nodes whose
  last iteration swapped nothing — are dropped from the working set whenever
  that at least halves it.
* **Gains are integers.**  A membership contributes +1, 0 or -1, so the sums
  are exact in any order, and the two per-node rankings become one stable sort
  of the composite integer key ``(2·node + side)·span + (max gain − gain)``
  over the whole working set — ties still fall in vertex order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.partitioning.base import Partitioner, PartitionResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_int_at_least
from repro.workloads.trace import Trace


def _node_positions(starts: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position the nodes cover, node after node, and its node's number."""
    node = np.repeat(np.arange(starts.size), sizes)
    shift = starts - (np.cumsum(sizes) - sizes)
    return shift[node] + np.arange(node.size), node


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, bound)``.

    NumPy's stable sort of 16-bit integers is a radix sort, several times
    faster than its merge sort, so keys that fit are narrowed first.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _dense_labels(labels: np.ndarray, min_count: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Keep the entries whose label occurs at least ``min_count`` times.

    Returns the keep mask, the kept entries' labels renumbered ``0..n-1`` in
    label order, and ``n``.
    """
    if labels.size == 0:
        return np.zeros(0, dtype=bool), labels, 0
    useful = np.bincount(labels) >= min_count
    number = np.cumsum(useful) - 1
    keep = useful[labels]
    return keep, number[labels[keep]], int(number[-1]) + 1


class _Level(NamedTuple):
    """The nodes of one depth that are still split, left to right.

    ``starts``/``sizes`` locate each node in the arrangement of all vertices;
    ``side`` is the side (0/1) of every position — the random initial splits
    until the level is refined in place, 0 throughout the leaves beside it.
    Every level exists before the first is refined, so a level stays this
    small: what else is per position is derived when its turn comes.
    """

    starts: np.ndarray
    sizes: np.ndarray
    side: np.ndarray


def _draw_levels(
    num_vectors: int, vectors_per_block: int, rng: np.random.Generator
) -> List[_Level]:
    """Lay out the whole bisection tree and draw every initial split.

    The draws are made depth-first, left child first — the order in which a
    node-by-node walk consumes the seeded stream.
    """
    drawn: List[Tuple[List[int], List[int], np.ndarray]] = []
    stack = [(0, num_vectors, 0)]
    while stack:
        start, size, depth = stack.pop()
        if size <= vectors_per_block:
            continue
        if depth == len(drawn):
            drawn.append(([], [], np.zeros(num_vectors, dtype=np.int8)))
        starts, sizes, side = drawn[depth]
        half = size // 2
        starts.append(start)
        sizes.append(size)
        # Balanced random initial split: `half` of the node's vertices on side 1.
        side[rng.permutation(size)[:half] + start] = 1
        # Push right first so the left child is drawn first (LIFO).
        stack.append((start + size - half, half, depth + 1))
        stack.append((start, size - half, depth + 1))
    return [
        _Level(np.array(starts, dtype=np.int64), np.array(sizes, dtype=np.int64), side)
        for starts, sizes, side in drawn
    ]


class _WorkingSet:
    """The nodes of one level that are being refined, laid back to back.

    ``side`` is the level's side assignment over all positions; the working
    set copies its nodes' part, refines the copy and writes it back on
    :meth:`flush`.  ``member_positions``/``member_queries`` are the query
    memberships inside these nodes, with query labels unique per (node, query).
    """

    def __init__(
        self,
        side: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        member_positions: np.ndarray,
        member_queries: np.ndarray,
    ) -> None:
        self._level_side = side
        self.starts = starts
        self.sizes = sizes
        self.positions, node = _node_positions(starts, sizes)
        self.side = side[self.positions]
        self._group = 2 * node

        index = np.empty(side.size, dtype=np.int64)
        index[self.positions] = np.arange(self.positions.size)
        self._member_vertex = index[member_positions]
        _, queries, self._num_queries = _dense_labels(member_queries, 1)
        self._member_query2 = 2 * queries

        # Ranked by (node, side, gain), a node's side-0 vertices sit at its
        # offset and its side-1 vertices ``size - half`` further on — the side
        # sizes never change — so the i-th best of each side are a fixed pair
        # of ranks.
        halves = sizes // 2
        offsets = np.cumsum(sizes) - sizes
        self._pair0, self._pair_node = _node_positions(offsets, halves)
        self._pair1 = self._pair0 + (sizes - halves)[self._pair_node]

    def refine_once(self) -> np.ndarray:
        """One refinement iteration of every node; returns the swaps per node."""
        side = self.side
        # One count per (query, side): both side counts of every query.
        key = self._member_query2 + side[self._member_vertex]
        counts = np.bincount(key, minlength=2 * self._num_queries)
        # Gain of moving a member of (query, side) to the other side: leaving
        # a side it occupies alone removes one block from the query's fanout
        # (+1); entering a side the query does not yet touch adds one (-1).
        move_gain = (counts == 1).astype(np.float64).reshape(-1, 2)
        move_gain -= (counts == 0).reshape(-1, 2)[:, ::-1]
        gain = np.bincount(
            self._member_vertex, weights=move_gain.reshape(-1)[key], minlength=side.size
        ).astype(np.int64)

        best = int(gain.max())
        span = best - int(gain.min()) + 1
        key = self._group + side
        key *= span
        key += best - gain
        ranked = _stable_argsort(key, 2 * self.sizes.size * span)
        ranked_gain = gain[ranked]
        # Both gain sequences are non-increasing, so the combined gain is
        # non-increasing and the positive pairs are a prefix within each node.
        swap = ranked_gain[self._pair0] + ranked_gain[self._pair1] > 0
        side[ranked[self._pair0[swap]]] = 1
        side[ranked[self._pair1[swap]]] = 0
        return np.bincount(self._pair_node[swap], minlength=self.sizes.size)

    def flush(self) -> None:
        """Write the refined sides back into the level's side assignment."""
        self._level_side[self.positions] = self.side

    def restricted_to(self, nodes: np.ndarray) -> "_WorkingSet":
        """A working set of only the nodes selected by the boolean ``nodes``."""
        self.flush()
        keep = np.repeat(nodes, self.sizes)[self._member_vertex]
        return _WorkingSet(
            self._level_side,
            self.starts[nodes],
            self.sizes[nodes],
            self.positions[self._member_vertex[keep]],
            self._member_query2[keep],
        )


def _node_of_positions(level: _Level) -> np.ndarray:
    """The number of the level's node each position lies in, -1 inside a leaf."""
    positions, node = _node_positions(level.starts, level.sizes)
    node_of = np.full(level.side.size, -1, dtype=np.int64)
    node_of[positions] = node
    return node_of


def _hot_working_set(
    level: _Level, member_positions: np.ndarray, member_queries: np.ndarray
) -> Optional[_WorkingSet]:
    """The level's hot nodes — those holding a query membership — if any."""
    member_node = _node_of_positions(level)[member_positions]
    # A membership inside a leaf cannot influence anything any more.
    inside = member_node >= 0
    hot = np.bincount(member_node[inside], minlength=level.starts.size) > 0
    if not hot.any():
        return None
    return _WorkingSet(
        level.side,
        level.starts[hot],
        level.sizes[hot],
        member_positions[inside],
        member_queries[inside],
    )


def _arrange_children(
    level: _Level,
    order: np.ndarray,
    member_positions: np.ndarray,
    member_queries: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every node of the level: children take their parent's place.

    Each vertex moves to the span of its child (side 0 first), keeping its
    rank among the vertices that go with it; leaves keep their place.
    Returns the new order and the memberships that still matter, under their
    new positions and with labels unique per (child, query).
    """
    num_vectors = order.size
    side = level.side
    positions, node = _node_positions(level.starts, level.sizes)
    side0_sizes = level.sizes - level.sizes // 2
    target = np.arange(num_vectors)
    target[positions] = level.starts[node] + side[positions] * side0_sizes[node]
    arrangement = _stable_argsort(target, num_vectors)
    moved_to = np.empty(num_vectors, dtype=np.int64)
    moved_to[arrangement] = np.arange(num_vectors)
    # Keep only child queries that still have >= 2 members; a single-member
    # query cannot affect any further bisection.
    keep, child_queries, _ = _dense_labels(2 * member_queries + side[member_positions], 2)
    return order[arrangement], moved_to[member_positions[keep]], child_queries


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

    Every query of the training trace is used; to train on fewer (the
    paper's Figures 9 and 15 sweep the count), pass a shorter trace.
    """

    name = "shp"

    def __init__(
        self,
        vectors_per_block: int = 32,
        num_iterations: int = 16,
        seed: int = 0,
    ) -> None:
        self.vectors_per_block = check_int_at_least(
            vectors_per_block, 1, "vectors_per_block"
        )
        self.num_iterations = check_int_at_least(num_iterations, 1, "num_iterations")
        self.seed = check_int_at_least(seed, 0, "seed")

    # -------------------------------------------------------------------- API
    def partition(self, num_vectors: int, trace: Trace) -> PartitionResult:
        num_vectors = self._validate_num_vectors(num_vectors)
        if trace.num_vectors > num_vectors:
            raise ValueError(
                "trace references more vectors than the table being partitioned"
            )
        rng = ensure_rng(self.seed)

        # Memberships as (position of the vertex, query label); at the root a
        # vertex's position is its id.
        member_positions, member_queries, num_queries = self._flatten_queries(trace)
        levels = _draw_levels(num_vectors, self.vectors_per_block, rng)

        # Sibling leaves end up next to each other (adjacent blocks share an
        # ancestor split): children take their parent's place, left first.
        order = np.arange(num_vectors, dtype=np.int64)
        total_swaps = 0
        for level in levels:
            total_swaps += self._refine(level, member_positions, member_queries)
            order, member_positions, member_queries = _arrange_children(
                level, order, member_positions, member_queries
            )

        return PartitionResult(
            order=order,
            details={
                "num_iterations": self.num_iterations,
                "num_training_queries": num_queries,
                "total_swaps": total_swaps,
                "max_depth": len(levels),
            },
        )

    # ---------------------------------------------------------------- internal
    def _flatten_queries(self, trace: Trace) -> Tuple[np.ndarray, np.ndarray, int]:
        """Flatten the training queries into (member ids, query ids) arrays.

        Queries with fewer than two distinct ids cannot influence fanout and
        are dropped up front.
        """
        queries = trace.queries
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
        kept, query_ids, num_queries = _dense_labels(owner, 2)
        return members[kept], query_ids, num_queries

    def _refine(
        self, level: _Level, member_positions: np.ndarray, member_queries: np.ndarray
    ) -> int:
        """Refine the sides of every node of the level; returns the swaps made."""
        work = _hot_working_set(level, member_positions, member_queries)
        if work is None:
            return 0
        total_swaps = 0
        for _ in range(self.num_iterations):
            node_swaps = work.refine_once()
            moving = node_swaps > 0
            if not moving.any():
                break
            total_swaps += int(node_swaps.sum())
            # Converged nodes would only repeat themselves: drop them when the
            # working set at least halves.
            if 2 * int(work.sizes[moving].sum()) <= work.positions.size:
                work = work.restricted_to(moving)
        work.flush()
        return total_swaps
