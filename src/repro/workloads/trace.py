"""Trace containers.

A *query* is the set of embedding-vector ids one ranking request reads from a
single table (the paper's "lookup query" ``Q_j``).  A :class:`Trace` is an
ordered sequence of queries against one table; a :class:`ModelTrace` groups
the per-table traces of a whole model, mirroring how a production request
touches several user-embedding tables at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, ItemsView, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_array_1d_ints, check_fraction, check_int_at_least


class Trace:
    """An ordered sequence of lookup queries against a single embedding table.

    Parameters
    ----------
    queries:
        Iterable of 1-D integer arrays; each array holds the vector ids read
        by one request.  Empty queries are dropped.
    num_vectors:
        Size of the table the trace refers to.  When omitted it is inferred as
        ``max(id) + 1``.
    """

    def __init__(self, queries: Iterable[Sequence[int]], num_vectors: Optional[int] = None) -> None:
        self._queries: List[np.ndarray] = []
        max_id = -1
        for query in queries:
            arr = check_array_1d_ints(query, "query")
            if arr.size == 0:
                continue
            if arr.min() < 0:
                raise ValueError("vector ids must be non-negative")
            max_id = max(max_id, int(arr.max()))
            self._queries.append(arr)
        if num_vectors is None:
            num_vectors = max_id + 1
        else:
            num_vectors = check_int_at_least(num_vectors, 0, "num_vectors")
            if max_id >= num_vectors:
                raise ValueError(
                    f"trace references id {max_id} but num_vectors is {num_vectors}"
                )
        self.num_vectors = num_vectors

    @classmethod
    def _trusted(cls, queries: List[np.ndarray], num_vectors: int) -> "Trace":
        """Wrap queries that already satisfy the constructor's checks.

        For this package's own use, on queries taken from a validated trace or
        built by a generator: every array is non-empty, 1-D, ``int64`` and has
        its ids in ``[0, num_vectors)``.  The list is adopted, not copied.
        Outside input goes through ``Trace(...)``.
        """
        trace = cls.__new__(cls)
        trace._queries = queries
        trace.num_vectors = int(num_vectors)
        return trace

    # ------------------------------------------------------------------ basic
    @property
    def queries(self) -> List[np.ndarray]:
        """The underlying list of id arrays (not copied)."""
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._queries)

    def __getitem__(self, index: Union[int, slice]) -> Union[np.ndarray, "Trace"]:
        if isinstance(index, slice):
            return Trace._trusted(self._queries[index], self.num_vectors)
        return self._queries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.num_vectors == other.num_vectors
            and len(self) == len(other)
            and all(np.array_equal(a, b) for a, b in zip(self._queries, other._queries))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(num_queries={len(self)}, num_lookups={self.num_lookups}, "
            f"num_vectors={self.num_vectors})"
        )

    # ------------------------------------------------------------------ stats
    @property
    def num_lookups(self) -> int:
        """Total number of vector lookups across all queries."""
        return int(sum(q.size for q in self._queries))

    @property
    def avg_lookups_per_query(self) -> float:
        """Average number of vector ids per query (the paper's "avg request size")."""
        if not self._queries:
            return 0.0
        return self.num_lookups / len(self._queries)

    def unique_vectors(self) -> np.ndarray:
        """Sorted array of distinct vector ids appearing in the trace."""
        if not self._queries:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self._queries))

    def flatten(self) -> np.ndarray:
        """All lookups in request order as a single 1-D id stream."""
        if not self._queries:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._queries)

    # ----------------------------------------------------------- manipulation
    def split(self, fraction: float) -> Tuple["Trace", "Trace"]:
        """Split into a (head, tail) pair at ``fraction`` of the queries.

        Used to separate a placement-training trace from a held-out evaluation
        trace, mirroring the paper's train-on-5B / evaluate-on-1B methodology.
        """
        check_fraction(fraction, "fraction")
        cut = int(round(len(self._queries) * fraction))
        head = Trace._trusted(self._queries[:cut], self.num_vectors)
        tail = Trace._trusted(self._queries[cut:], self.num_vectors)
        return head, tail

    def head(self, num_queries: int) -> "Trace":
        """The first ``num_queries`` queries as a new trace."""
        check_int_at_least(num_queries, 0, "num_queries")
        return Trace._trusted(self._queries[:num_queries], self.num_vectors)


@dataclass
class ModelTrace:
    """The per-table traces of one recommendation model.

    Attributes
    ----------
    tables:
        Mapping from table name to its :class:`Trace`.  Iteration order is the
        insertion order, matching the paper's table numbering.
    """

    tables: Dict[str, Trace] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Trace:
        return self.tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __iter__(self) -> Iterator[str]:
        return iter(self.tables)

    def __len__(self) -> int:
        return len(self.tables)

    def items(self) -> ItemsView[str, Trace]:
        return self.tables.items()

    @property
    def total_lookups(self) -> int:
        """Total lookups across every table."""
        return sum(trace.num_lookups for trace in self.tables.values())

    def requests(self) -> Iterator[Dict[str, np.ndarray]]:
        """Zip the tables into a stream of multi-table requests.

        Request ``i`` maps each table name to that table's ``i``-th query;
        tables with fewer queries drop out of later requests.  This is the
        store-level request stream: one production request reads from every
        table at once.
        """
        tables = [(name, trace.queries) for name, trace in self.tables.items()]
        num_requests = max((len(queries) for _, queries in tables), default=0)
        for i in range(num_requests):
            yield {name: queries[i] for name, queries in tables if i < len(queries)}

    def lookup_shares(self) -> Dict[str, float]:
        """Fraction of all lookups served by each table (Table 1, "% of total")."""
        total = self.total_lookups
        if total == 0:
            return {name: 0.0 for name in self.tables}
        return {name: trace.num_lookups / total for name, trace in self.tables.items()}

    def split(self, fraction: float) -> Tuple["ModelTrace", "ModelTrace"]:
        """Split every table's trace at the same fraction."""
        heads, tails = {}, {}
        for name, trace in self.tables.items():
            heads[name], tails[name] = trace.split(fraction)
        return ModelTrace(heads), ModelTrace(tails)
