"""Production-like embedding access traces.

The paper characterises Facebook's user-embedding workload in its Table 1 and
Figures 3–4 (hit-rate curves and access histograms).  This package contains:

* :mod:`repro.workloads.trace` — the ``Trace``/``ModelTrace`` containers used
  everywhere else in the library,
* :mod:`repro.workloads.tables_spec` — the paper's per-table statistics as
  data, plus scaled-down variants that fit in memory,
* :mod:`repro.workloads.generator` — a synthetic trace generator that matches
  those statistics (popularity skew, request size, co-access structure),
* :mod:`repro.workloads.characterization` — the analysis used to regenerate
  Table 1 and Figure 4 from any trace,
* :mod:`repro.workloads.remap` — the id-densifying shim that lets external
  traces with sparse 64-bit key universes feed the array-native cache stack.
"""

from repro.workloads.trace import Trace, ModelTrace
from repro.workloads.tables_spec import (
    TableSpec,
    PAPER_TABLE_SPECS,
    scaled_table_specs,
)
from repro.workloads.generator import (
    SyntheticTraceGenerator,
    generate_model_trace,
    paper_shaped_lookups,
)
from repro.workloads.characterization import (
    TableCharacterization,
    characterize_table,
    characterize_model,
    access_counts,
    access_histogram,
    compulsory_miss_rate,
)
from repro.workloads.remap import IdRemapper

__all__ = [
    "Trace",
    "ModelTrace",
    "TableSpec",
    "PAPER_TABLE_SPECS",
    "scaled_table_specs",
    "SyntheticTraceGenerator",
    "generate_model_trace",
    "paper_shaped_lookups",
    "TableCharacterization",
    "characterize_table",
    "characterize_model",
    "access_counts",
    "access_histogram",
    "compulsory_miss_rate",
    "IdRemapper",
]
