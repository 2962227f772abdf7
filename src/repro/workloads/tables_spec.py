"""The paper's Table 1 as data, plus scaled variants that fit in memory.

Table 1 of the paper characterises eight representative user-embedding tables
from a production model: their size (10–20 M vectors), the average number of
vector lookups per request, the share of total lookups they serve and their
compulsory-miss rate (fraction of lookups touching a vector for the first
time).  Those statistics drive every experiment, so they are reproduced here
verbatim and used as the calibration target of the synthetic generator.

The production sizes do not fit a pure-Python laptop run, so
:func:`scaled_table_specs` produces linearly scaled-down specs that keep the
*ratios* (relative table sizes, request mix, skew) intact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated, Dict, List, Optional

from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonEmpty,
    NonNegative,
    Positive,
    check_positive,
    check_type,
    validate_fields,
)

#: Embedding vector geometry used throughout the paper's evaluation.
PAPER_VECTOR_BYTES = 128
PAPER_BLOCK_BYTES = 4096
PAPER_VECTORS_PER_BLOCK = PAPER_BLOCK_BYTES // PAPER_VECTOR_BYTES  # 32


@dataclass(frozen=True)
class TableSpec:
    """Statistical description of one user-embedding table.

    Attributes
    ----------
    name:
        Table identifier ("table1" ... "table8" for the paper's tables).
    num_vectors:
        Number of embedding vectors (columns) in the table.
    avg_lookups_per_query:
        Average number of vector ids a single request reads from this table.
    lookup_share:
        This table's fraction of all user-embedding lookups in the model.
    compulsory_miss_rate:
        Fraction of lookups in the characterisation trace that touch a vector
        never seen before.  Lower values mean the table caches well.
    popularity_alpha:
        Zipf exponent used by the synthetic generator to approximate the
        table's popularity skew.  Chosen so the generated compulsory-miss rate
        and access histogram resemble the paper's; tables with a low
        compulsory-miss rate get a heavier skew.
    num_topics:
        Number of co-access "topics" the generator uses for this table; more
        topics means weaker co-access structure (harder to partition).

    Every vector is stored as :data:`PAPER_VECTOR_BYTES` bytes on NVM.
    """

    name: Annotated[str, NonEmpty]
    num_vectors: Annotated[int, AtLeast(1)]
    avg_lookups_per_query: Annotated[float, Positive]
    lookup_share: Annotated[float, Fraction]
    compulsory_miss_rate: Annotated[float, Fraction]
    popularity_alpha: Annotated[float, NonNegative] = 0.8
    num_topics: Annotated[int, AtLeast(1)] = 512

    def __post_init__(self) -> None:
        validate_fields(self)

    def scaled(self, scale: float) -> "TableSpec":
        """Return a copy with ``num_vectors`` scaled by ``scale``.

        Request-level statistics (lookups per query, shares, miss rates) and
        the number of co-access topics are intensive quantities and are left
        unchanged; the trace generator caps topics at a fraction of the table
        size when the table becomes very small.
        """
        check_positive(scale, "scale")
        return replace(
            self,
            num_vectors=max(PAPER_VECTORS_PER_BLOCK, int(round(self.num_vectors * scale))),
        )


def _paper_specs() -> List[TableSpec]:
    """The eight tables of the paper's Table 1.

    ``popularity_alpha`` is not reported in the paper; it is set so that
    tables with low compulsory-miss rates (1, 2) are highly skewed and tables
    with high compulsory-miss rates (8) are close to uniform, which reproduces
    the qualitative ordering of the paper's hit-rate curves and histograms.
    """
    rows = [
        #     name      vectors   avg/query  share    compulsory  alpha  topics
        ("table1", 10_000_000, 34.83, 0.0944, 0.0416, 1.05, 400),
        ("table2", 10_000_000, 92.75, 0.2514, 0.0219, 1.10, 300),
        ("table3", 20_000_000, 26.67, 0.0723, 0.2429, 0.75, 800),
        ("table4", 20_000_000, 25.14, 0.0682, 0.1946, 0.80, 800),
        ("table5", 10_000_000, 30.22, 0.0819, 0.2268, 0.75, 600),
        ("table6", 10_000_000, 53.50, 0.1450, 0.2694, 0.70, 600),
        ("table7", 10_000_000, 54.35, 0.1473, 0.1136, 0.90, 500),
        ("table8", 20_000_000, 17.68, 0.0479, 0.6083, 0.45, 1200),
    ]
    return [
        TableSpec(
            name=name,
            num_vectors=vectors,
            avg_lookups_per_query=avg,
            lookup_share=share,
            compulsory_miss_rate=miss,
            popularity_alpha=alpha,
            num_topics=topics,
        )
        for name, vectors, avg, share, miss, alpha, topics in rows
    ]


#: The paper's Table 1, production scale.
PAPER_TABLE_SPECS: Dict[str, TableSpec] = {spec.name: spec for spec in _paper_specs()}

#: Default linear scale used by the benchmarks (1/500 of production).
DEFAULT_SCALE = 1.0 / 500.0


def scaled_table_specs(
    scale: float = DEFAULT_SCALE, names: Optional[List[str]] = None
) -> Dict[str, TableSpec]:
    """Scaled-down copies of the paper's tables.

    Parameters
    ----------
    scale:
        Linear factor applied to the vector counts (default 1/500, i.e.
        10 M-vector tables become 20 k-vector tables).
    names:
        Subset of table names to include; defaults to all eight.
    """
    check_positive(check_type(scale, float, "scale"), "scale")
    if names is None:
        names = list(PAPER_TABLE_SPECS)
    unknown = [n for n in names if n not in PAPER_TABLE_SPECS]
    if unknown:
        raise KeyError(f"unknown table names: {unknown}")
    return {name: PAPER_TABLE_SPECS[name].scaled(scale) for name in names}
