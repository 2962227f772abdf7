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
  Table 1 and Figure 4 from any trace.

External traces with sparse 64-bit key universes are densified by
:mod:`repro.scenarios.loader`.
"""

from repro.workloads.trace import ModelTrace
from repro.workloads.tables_spec import scaled_table_specs
from repro.workloads.generator import (
    SyntheticTraceGenerator,
    generate_model_trace,
    paper_shaped_lookups,
)

__all__ = [
    "ModelTrace",
    "scaled_table_specs",
    "SyntheticTraceGenerator",
    "generate_model_trace",
    "paper_shaped_lookups",
]
