"""Per-request span tracing on the simulated clock.

``repro.tracing`` decomposes every request's end-to-end latency into named
stage intervals — arrival → batcher linger → shard fan-out → per-attempt
node queue/service (with retries, hedges, breaker skips, and sheds each as
their own span) → fan-in — so a regressed percentile can be *attributed*
instead of guessed at.  Everything runs on the same microsecond simulated
clock as the serving front-end and the cluster store; tracing reads values
the simulation already computed, touches no RNG, and changes no behavior.

Worked example: why did p999 regress?
-------------------------------------
``BENCH_cluster_failures.json`` shows the ``crash_recover`` scenario at
R=2 with availability 1.0 but p999 ≈ 5x the healthy baseline.  Is the
device slower, or is the tail paying for failover?  Ask the tracer (with
``store`` a built :class:`~repro.core.bandana.BandanaStore` and
``eval_trace`` its evaluation trace):

>>> from repro.cluster import run_scenario
>>> from repro.core.config import ClusterConfig, TracingConfig
>>> report = run_scenario(  # doctest: +SKIP
...     store, eval_trace, "crash_recover",
...     cluster_config=ClusterConfig(num_nodes=4, replication=2),
...     num_requests=4000,
...     tracing=TracingConfig(enabled=True, sample_every=1),
... )
>>> trace = report.trace  # doctest: +SKIP
>>> trace["slo_violators_breakdown_by_stage"]  # doctest: +SKIP
{'request':         {'count': 38, 'total_us': 52413.0, ...},
 'attempt.timeout': {'count': 41, 'total_us': 28700.0, ...},
 'backoff':         {'count': 41, 'total_us': 12915.0, ...},
 'node.service':    {'count': 38, 'total_us': 3810.0, ...},
 ...}

The violators' time sits in ``attempt.timeout`` + ``backoff`` — reads that
hit the crashed replica, burned the shard timeout, backed off, and retried
on the survivor — while ``node.service`` is unchanged from the healthy run.
The p999 inflation is failover cost, not device contention; the fix is a
faster breaker strike or shorter shard timeout, not more NVM bandwidth.
The same dict's ``top_slow`` entries carry each slow request's critical
path (the root-to-leaf chain of spans that determined its completion) for
request-by-request drill-down.

Enabling it
-----------
Pass a ``TracingConfig(enabled=True, ...)`` or a :class:`Tracer` as the
``tracing=`` argument of ``simulate_serving`` / ``run_scenario``.  Disabled
(the default) resolves to the shared :data:`NULL_TRACER`, and every
instrumentation site guards with ``if tracer.enabled:`` — the disabled path
is an attribute load and a branch, with zero allocations.
``tests/test_tracing.py`` fences it by count: at most four guard reads per
served request.
"""

from repro.tracing.tracer import NULL_TRACER, NullTracer, Tracer
from repro.tracing.summary import validate_trace

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "validate_trace",
]
