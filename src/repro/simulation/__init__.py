"""Trace-replay harness and experiment helpers.

The paper's figures are all produced by replaying an evaluation trace against
some configuration of placement + cache + policy and comparing NVM block reads
against the no-prefetch baseline.  :func:`repro.simulation.runner.simulate_table`
does that for one table (Figures 6–12), :func:`repro.simulation.simulate_store`
for a full :class:`~repro.core.bandana.BandanaStore` (Figures 13–16), table by
table through the store's serving engines, and
:func:`repro.simulation.unlimited_cache_bandwidth_increase` counts the
unlimited-cache placement gain (Figures 6, 8, 9) without replaying;
:mod:`repro.simulation.report` renders the results as the text tables the
benchmark harnesses print.  :func:`repro.simulation.simulate_serving`
(implemented in :mod:`repro.serving`) re-times the same store replay on a
simulated clock under an open-loop arrival process and reports end-to-end
latency percentiles instead of raw counters.
"""

from repro.simulation.runner import simulate_store, unlimited_cache_bandwidth_increase
from repro.serving.frontend import simulate_serving

__all__ = [
    "simulate_store",
    "simulate_serving",
    "unlimited_cache_bandwidth_increase",
]
