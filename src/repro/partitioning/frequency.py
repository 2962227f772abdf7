"""Frequency-ordered placement (ablation; not part of the paper's design).

Sorting vectors by access frequency packs the hottest vectors into the same
few blocks.  It captures *popularity* locality but not *co-access* locality:
two hot vectors need not be requested by the same queries.  It is included as
an ablation baseline between the identity layout and SHP, to quantify how much
of SHP's win comes from genuine co-access mining rather than from merely
segregating hot vectors.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.base import Partitioner, PartitionResult
from repro.workloads.characterization import access_counts
from repro.workloads.trace import Trace


class FrequencyPartitioner(Partitioner):
    """Orders vectors by descending access count in the training trace."""

    name = "frequency"

    def partition(self, num_vectors: int, trace: Trace) -> PartitionResult:
        num_vectors = self._validate_num_vectors(num_vectors)
        if trace.num_vectors > num_vectors:
            raise ValueError(
                "trace references more vectors than the table being partitioned"
            )
        counts = np.zeros(num_vectors, dtype=np.int64)
        counts[: trace.num_vectors] = access_counts(trace)
        # Stable sort keeps the original order among equally-hot vectors, so
        # never-accessed vectors stay in id order at the cold end.
        order = np.argsort(-counts, kind="stable").astype(np.int64)
        return PartitionResult(
            order=order,
            details={"max_count": int(counts.max()) if counts.size else 0},
        )
