"""Adversarial workload subsystem: traces the offline pipeline never saw.

Bandana (Eisenman et al., MLSys'19) trains everything offline — the SHP
placement, the admission thresholds, the DRAM split — on a historical trace,
and then serves a workload assumed to look like that history.  This package
supplies the workloads that *break* the assumption, plus the online
re-partitioning lifecycle that repairs it:

* :mod:`repro.scenarios.generators` — synthetic adversaries: popularity
  **drift** and **flash crowds** on cold ids.
* :mod:`repro.scenarios.loader` — a one-pass loader for external cache
  traces (Twitter CSV layout and a generic columnar format), normalised
  into the dense-id contract and characterised against the paper's
  Table 1.
* :mod:`repro.scenarios.lifecycle` — :class:`RepartitionManager`, which
  retrains the placement on a trailing window and swaps it live.
* :mod:`repro.scenarios.runner` — :func:`run_workload_scenario`, the
  windowed hit-rate replay tying it together (latency comes from
  :func:`repro.serving.simulate_serving` or :func:`repro.cluster.run_scenario`).

Worked example — drift breaks SHP, the lifecycle buys it back::

    from repro.scenarios import (
        RepartitionConfig, ScenarioConfig,
        generate_scenario_trace, run_workload_scenario,
    )

    # A Zipf workload whose popularity ranking rotates 8% every 200 queries.
    config = ScenarioConfig(
        kind="drift", num_queries=3000, num_vectors=2048,
        drift_rotation_per_epoch=0.08, drift_epoch_queries=200, seed=7,
    )
    trace = generate_scenario_trace(config)

    # Offline-only Bandana: train SHP on the first half, serve the second.
    stale = run_workload_scenario(trace, train_fraction=0.5)
    # The placement was trained on epochs whose hot set has since rotated
    # away: the windowed hit-rate series decays, and
    # stale.hit_rate_decay (early minus late window hit rate) is large.

    # Same trace, with the lifecycle retraining SHP every 400 queries on a
    # trailing 800-query window.
    repaired = run_workload_scenario(
        trace, train_fraction=0.5,
        repartition=RepartitionConfig(cadence_queries=400, window_queries=800),
    )
    # repaired.late_hit_rate recovers most of the stale run's loss;
    # repaired.repartition["churn"] shows how much placement each swap moved.

Determinism: every run is a pure function of (trace, config, seed) — the
golden pins in ``tests/test_scenarios.py`` and the ledger entry
``smoke_scenarios`` rely on it.
"""

from repro.scenarios.config import RepartitionConfig, ScenarioConfig, TraceLoaderConfig
from repro.scenarios.generators import generate_scenario_trace
from repro.scenarios.lifecycle import RepartitionManager
from repro.scenarios.loader import characterization_report, load_trace
from repro.scenarios.runner import run_workload_scenario

__all__ = [
    "ScenarioConfig",
    "TraceLoaderConfig",
    "RepartitionConfig",
    "generate_scenario_trace",
    "RepartitionManager",
    "characterization_report",
    "load_trace",
    "run_workload_scenario",
]
