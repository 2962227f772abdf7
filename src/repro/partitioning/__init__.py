"""Physical placement algorithms (the paper's Section 4.2).

A partitioner decides the physical order of a table's embedding vectors so
that vectors likely to be read together share a 4 KB NVM block.  Two families
are evaluated in the paper:

* **Semantic** — :class:`KMeansPartitioner` and
  :class:`RecursiveKMeansPartitioner` cluster the vector *values* (Euclidean
  proximity as a proxy for temporal proximity).
* **Supervised** — :class:`SHPPartitioner` (Social Hash Partitioner) minimises
  the average number of blocks a training-trace query touches, using only the
  access history.

The paper's baseline (original table order) needs no partitioner: it is
:meth:`BlockLayout.identity <repro.nvm.block.BlockLayout.identity>`.
:class:`FrequencyPartitioner` is an extra ablation that simply groups hot
vectors together.
"""

from repro.partitioning.frequency import FrequencyPartitioner
from repro.partitioning.kmeans import KMeansPartitioner
from repro.partitioning.recursive_kmeans import RecursiveKMeansPartitioner
from repro.partitioning.shp import SHPPartitioner

__all__ = [
    "FrequencyPartitioner",
    "KMeansPartitioner",
    "RecursiveKMeansPartitioner",
    "SHPPartitioner",
]
