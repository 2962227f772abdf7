"""Windowed scenario replay: build on the past, serve the (shifted) future.

:func:`run_workload_scenario` is the subsystem's orchestrator.  It splits a
scenario trace into a training prefix and an evaluation suffix, builds a
:class:`~repro.core.bandana.BandanaStore` on the prefix exactly as the
offline pipeline would, then serves the suffix query by query — optionally
feeding the queries to a :class:`~repro.scenarios.lifecycle.RepartitionManager`
so the placement can be retrained online — and closes a measurement window
every ``window_queries`` queries.  The windowed hit-rate series is the
experiment's primary output: flat for a stationary workload, decaying under
drift with a stale placement, and saw-toothed (decay, swap, recover) with
the lifecycle enabled.  It measures no latency: serve the evaluation split
through :func:`repro.serving.simulate_serving` for that.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.scenarios.config import RepartitionConfig
from repro.scenarios.lifecycle import RepartitionManager
from repro.scenarios.report import ScenarioReport
from repro.utils.validation import check_fraction, check_int_at_least
from repro.workloads.trace import ModelTrace, Trace


def run_workload_scenario(
    trace: Trace,
    *,
    config: Optional[BandanaConfig] = None,
    train_fraction: float = 0.5,
    repartition: Optional[RepartitionConfig] = None,
    window_queries: int = 100,
    warmup_queries: int = 0,
    table_name: str = "scenario",
) -> ScenarioReport:
    """Replay one scenario end to end and report the windowed hit-rate curve.

    Parameters
    ----------
    trace:
        The scenario's full access trace
        (:func:`repro.scenarios.generators.generate_scenario_trace` or a
        loaded external trace).
    config:
        Store configuration for the offline build; defaults to
        :class:`~repro.core.config.BandanaConfig`'s defaults (SHP placement,
        tuned admission threshold).
    train_fraction:
        Leading fraction of the trace the offline pipeline trains on; the
        remainder is served.  Under drift, a larger training split means a
        *staler* placement by the end of the evaluation split.
    repartition:
        When given, an online re-partitioning lifecycle observes every
        served query and retrains/swaps the placement per its cadence.
    window_queries:
        Queries per measurement window of the hit-rate series.
    warmup_queries:
        Serve this many of the *training split's last* queries through the
        store before measurement begins, so the DRAM cache starts warm on
        the trained distribution and the first windows measure the fresh
        placement at steady state instead of cold-start misses.  Warmup
        queries are excluded from every reported counter and are not fed to
        the lifecycle.  More than the training split holds raises
        ``ValueError``.
    table_name:
        Name of the single table the scenario exercises.
    """
    check_fraction(train_fraction, "train_fraction")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    check_int_at_least(window_queries, 1, "window_queries")
    check_int_at_least(warmup_queries, 0, "warmup_queries")

    train, evaluation = trace.split(train_fraction)
    if not train.queries or not evaluation.queries:
        raise ValueError(
            "train_fraction leaves an empty split "
            f"({len(train.queries)} train / {len(evaluation.queries)} eval queries)"
        )
    if warmup_queries > len(train.queries):
        raise ValueError(
            f"warmup_queries={warmup_queries} exceeds the training split's "
            f"{len(train.queries)} queries"
        )
    store = BandanaStore.build(ModelTrace({table_name: train}), config)
    state = store.tables[table_name]
    for query in train.queries[-warmup_queries:] if warmup_queries else []:
        store.lookup(table_name, query, gather=False)
    manager = (
        RepartitionManager(store, table_name, repartition)
        if repartition is not None
        else None
    )

    report = ScenarioReport(
        table_name=table_name,
        num_train_queries=len(train.queries),
        num_eval_queries=len(evaluation.queries),
        window_queries=window_queries,
    )
    start_hits, start_lookups = state.stats.hits, state.stats.lookups
    window_hits, window_lookups = start_hits, start_lookups
    queries_since_swap = 0
    for index, query in enumerate(evaluation.queries, start=1):
        store.lookup(table_name, query, gather=False)
        if manager is not None:
            manager.observe(query)
        else:
            queries_since_swap += 1
        if index % window_queries == 0 or index == report.num_eval_queries:
            hits, lookups = state.stats.hits, state.stats.lookups
            delta_lookups = lookups - window_lookups
            rate = (hits - window_hits) / delta_lookups if delta_lookups else 0.0
            report.window_hit_rates.append(rate)
            report.window_partition_age.append(
                manager.partition_age_queries if manager is not None else queries_since_swap
            )
            window_hits, window_lookups = hits, lookups

    total_lookups = state.stats.lookups - start_lookups
    if total_lookups:
        report.overall_hit_rate = (state.stats.hits - start_hits) / total_lookups
    report.early_hit_rate, report.late_hit_rate = ScenarioReport.quarter_means(
        report.window_hit_rates
    )
    if manager is not None:
        report.repartition = manager.summary()
    return report
