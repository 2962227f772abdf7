"""Partitioner interface and result container.

Every placement algorithm consumes some combination of the table's values and
its training trace and produces a physical *order* — a permutation of vector
ids.  The order is wrapped in a :class:`repro.nvm.block.BlockLayout` by
:meth:`PartitionResult.layout` for consumption by the cache and device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.nvm.block import BlockLayout
from repro.utils.validation import check_int_at_least


@dataclass
class PartitionResult:
    """Output of a partitioner run.

    A pure function of the partitioner's parameters and its input: two runs
    on one input return equal ``order`` arrays and equal ``details``.  No
    wall time is recorded; a caller that reports placement cost (the paper's
    Figure 7) times the ``partition`` call itself.

    Attributes
    ----------
    order:
        Permutation of vector ids: ``order[i]`` is the id stored at physical
        position ``i``.
    details:
        Algorithm-specific diagnostics (iterations, objective values, ...).
    """

    order: np.ndarray
    details: Dict[str, object] = field(default_factory=dict)

    def layout(self, vectors_per_block: int) -> BlockLayout:
        """Pack the order into fixed-size blocks."""
        return BlockLayout(self.order, vectors_per_block)


class Partitioner:
    """Base class of all placement algorithms.

    Each subclass's ``partition(num_vectors, <input>)`` takes only the input
    it reads: ``trace`` for the supervised algorithms (SHP, frequency),
    ``table`` for the semantic ones (the two K-means variants).
    """

    #: Name used in reports and benchmark output.
    name: str = "partitioner"

    @staticmethod
    def _validate_num_vectors(num_vectors: int) -> int:
        return check_int_at_least(num_vectors, 1, "num_vectors")
