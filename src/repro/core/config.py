"""Configuration objects for the end-to-end Bandana store.

The defaults reproduce the paper's end-to-end configuration (Section 5): SHP
placement trained with 16 iterations, 32 vectors per 4 KB block, a DRAM cache
budget expressed in vectors, per-table admission thresholds tuned by miniature
caches sampling 0.1 % of the blocks, and a hit-rate-curve-driven split of the
DRAM budget across tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional, Sequence

from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonNegative,
    OneOf,
    Positive,
    check_thresholds,
    validate_fields,
)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run, on a host (:mod:`repro.serving`) or a cluster.

    :func:`repro.cluster.run_scenario` reads the same fields: its arrival
    process and SLO, and, per node, ``devices_per_host`` and
    ``admission_queue_slack`` (the batcher knobs do not apply; a cluster
    serves unbatched).

    Attributes
    ----------
    arrival_rate_rps:
        Long-run request arrival rate in requests per second.
    arrival_process:
        ``"poisson"`` (memoryless open-loop arrivals) or ``"closed-loop"``
        (a fixed population of ``closed_loop_clients`` clients, each issuing
        its next request one exponential think time after the previous
        response — RPC fan-in, where saturation slows the clients down
        instead of growing the queue without bound).
    max_batch_requests:
        Dynamic-batcher size cutoff: a batch is dispatched as soon as it
        holds this many requests.  ``1`` disables batching.
    max_linger_us:
        Dynamic-batcher time cutoff: a batch is dispatched once its oldest
        request has waited this long, full or not.
    slo_latency_us:
        Per-request latency SLO; the report counts violations against it,
        and admission control sheds against it.
    closed_loop_clients:
        Client population size under ``"closed-loop"`` arrivals — a hard
        cap on in-flight requests (the concurrency invariant the tests
        pin).
    closed_loop_think_s:
        Mean think time (exponential) between a client's response and its
        next request.  The defaults offer ``32 / 0.016 s = 2000`` nominal
        rps, matching ``arrival_rate_rps``'s open-loop default.
    devices_per_host:
        Physical NVM devices in the host's (or each cluster node's) bank
        (:mod:`repro.device`), with the tables pinned to them round-robin.
        Each charge serves every device it touches once, with the summed
        misses of that device's tables.  ``1`` (the default) puts every
        table on one shared device — the paper's single-host deployment and
        the golden-pinned path; one device per table is the private-device
        counterfactual.
    admission_queue_slack:
        Admission control: a host sheds a request at batch dispatch (fast
        rejection, no cache or device work) when the wait for a free slot on
        any of its tables' devices exceeds ``slack × slo_latency_us``; a
        cluster node sheds a shard read when the backlog on its table's
        device exceeds the same bound, and the router retries another
        replica.  ``None`` (the default) disables shedding
        entirely — the golden-pinned behaviour.
    seed:
        Seed of the arrival process; ``None`` inherits the store seed.
    """

    arrival_rate_rps: Annotated[float, Positive] = 2000.0
    arrival_process: Annotated[str, OneOf("poisson", "closed-loop")] = "poisson"
    max_batch_requests: Annotated[int, AtLeast(1)] = 16
    max_linger_us: Annotated[float, NonNegative] = 500.0
    slo_latency_us: Annotated[float, Positive] = 2000.0
    closed_loop_clients: Annotated[int, AtLeast(1)] = 32
    closed_loop_think_s: Annotated[float, Positive] = 0.016
    devices_per_host: Annotated[int, AtLeast(1)] = 1
    admission_queue_slack: Annotated[Optional[float], Positive] = None
    seed: Annotated[Optional[int], AtLeast(0)] = None

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class TracingConfig:
    """Knobs of the per-request span tracer (:mod:`repro.tracing`).

    Attributes
    ----------
    enabled:
        Master switch.  Disabled (the default), the serving and cluster
        paths use the shared no-op tracer — instrumentation costs one
        attribute load and a branch per site, allocates nothing, and every
        golden pin stays bit-identical.
    sample_every:
        Retain every ``sample_every``-th request's trace (``1`` retains
        all).  Sampling bounds memory on long runs without losing the
        shape of the per-stage breakdown.  Every request whose end-to-end
        latency exceeded the run's SLO is retained regardless — tail
        regressions live in a handful of requests uniform sampling would
        miss.
    max_requests:
        Hard cap on retained traces; beyond it the oldest retained trace
        is evicted first (the tracer's conservation counters still account
        for every request ever started).
    top_k_slow:
        How many slowest requests the summary renders with their critical
        paths (the benchmark artifacts' "why is p999 what it is" section).
    """

    enabled: bool = False
    sample_every: Annotated[int, AtLeast(1)] = 1
    max_requests: Annotated[int, AtLeast(1)] = 4096
    top_k_slow: Annotated[int, AtLeast(1)] = 5

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the simulated multi-node cluster store (:mod:`repro.cluster`).

    Topology
    --------
    num_nodes:
        Simulated store nodes in the cluster.
    replication:
        Copies of every shard (``R``), placed on distinct nodes by walking
        the consistent-hash ring.  Reads go to one replica (read-one); the
        others absorb retries and hedges.  Clamped to ``num_nodes`` at ring
        construction.
    virtual_nodes:
        Virtual nodes per physical node on the hash ring — more vnodes
        smooth the per-node ownership shares at the cost of ring size.

    Each node's device bank is sized and guarded by the run's
    :class:`ServingConfig` (``devices_per_host``, ``admission_queue_slack``
    against ``slo_latency_us``); the per-attempt costs (node overhead, link
    delay, shard timeout, backoff, hedge-delay quantile and floor) are
    constants of :mod:`repro.cluster.node` and ``.store``.

    Retries, hedging, breaker
    -------------------------
    max_attempts:
        Total attempts (first try + retries) before a shard read is declared
        failed and the request degrades; each retry targets the shard's
        next replica after a capped exponential backoff.
    hedge_enabled:
        Hedged reads: when a first attempt's observed latency exceeds the
        running p99 estimate of shard latency (never below a floor), a
        duplicate read is fired at another replica and the earlier
        completion wins.  Requires ``replication >= 2``.
    breaker_failure_threshold:
        Consecutive failures-or-slow-responses after which a node's circuit
        breaker opens (the router stops routing to it without paying
        timeouts).
    breaker_slow_threshold_us:
        Service time counted as a "slow strike" against the breaker: the
        node's overhead plus NVM read time, times any slowdown.  Queue wait
        and link time never count (a backlog is overload, not a broken
        node).  This is what ejects persistently slow (but alive) replicas.
    breaker_cooloff_s:
        Simulated seconds an open breaker stays open before the node is
        probed again (half-open).
    seed:
        Seed of the cluster's stochastic machinery (link-loss draws).
    """

    num_nodes: Annotated[int, AtLeast(1)] = 4
    replication: Annotated[int, AtLeast(1)] = 2
    virtual_nodes: Annotated[int, AtLeast(1)] = 64
    max_attempts: Annotated[int, AtLeast(1)] = 4
    hedge_enabled: bool = True
    breaker_failure_threshold: Annotated[int, AtLeast(1)] = 5
    breaker_slow_threshold_us: Annotated[float, Positive] = 20000.0
    breaker_cooloff_s: Annotated[float, Positive] = 0.25
    seed: Annotated[int, AtLeast(0)] = 0

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class TableCacheConfig:
    """Resolved per-table cache configuration (produced during the build).

    Attributes
    ----------
    cache_size_vectors:
        DRAM cache capacity assigned to the table, in vectors.
    threshold:
        Prefetch-admission threshold ``t`` the build chose (tuned, or
        ``default_threshold``), kept as a record: the table's policy holds
        the threshold it admits by.  ``None`` is a hand-built state's "no
        threshold recorded"; the build never reads the field.
    """

    cache_size_vectors: Annotated[int, AtLeast(0)]
    threshold: Annotated[Optional[float], NonNegative] = None

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class BandanaConfig:
    """Configuration of a :class:`~repro.core.bandana.BandanaStore`.

    The store runs one build pipeline: SHP placement, a greedy split of the
    DRAM budget on the tables' hit-rate curves, then (optionally)
    miniature-cache threshold tuning.  The alternative partitioners are
    figure-script tools (:mod:`repro.partitioning`), not store modes.

    Attributes
    ----------
    vector_bytes:
        Bytes per embedding vector as stored on NVM (128 in the paper).
    block_bytes:
        NVM block size (4096 in the paper).  ``vectors_per_block`` is derived.
    total_cache_vectors:
        Total DRAM budget across all tables, expressed in cached vectors
        (the paper's end-to-end runs use 1–5 million; scaled runs use less).
    shp_iterations:
        Refinement iterations per SHP bisection (paper: 16).
    tune_thresholds:
        Whether to run the miniature-cache tuner; when false, ``default_threshold``
        is used everywhere and the whole training trace trains placement and
        counts.  When true, each training trace is split at
        :data:`repro.core.bandana.TUNING_HOLDOUT`: placement and counts come
        from the head and the tuner replays the held-out tail.
    default_threshold:
        Admission threshold used when tuning is disabled (or as a fallback for
        tables whose tuning trace is empty).
    mini_cache_sampling_rate:
        Share of NVM blocks whose lookups the miniature caches replay
        (paper: 0.001).  Blocks are sampled whole, and the rate is raised
        for a table whose miniature cache would otherwise hold fewer than
        :data:`repro.caching.miniature.MIN_MINIATURE_BLOCKS` blocks, so
        scaled-down tables are tuned at a higher effective rate.
    candidate_thresholds:
        Thresholds the tuner evaluates, as absolute access counts in the
        training trace's head.  The paper sweeps 0–20 for its 5 B lookup
        training runs.  The default spans 0–400 so one grid serves training
        traces of any length; on the benchmark's scaled tables the tuner
        picks 0 (admit every neighbour seen in training) everywhere.
    seed:
        Base random seed for all stochastic components.
    num_workers:
        Must be ``1``: the store replays in the calling process.  Kept only
        so existing callers that pass ``num_workers=1`` still construct;
        worker-sharded store replay was removed.

    NVM latency accounting runs at :data:`repro.nvm.latency.QUEUE_DEPTH`.
    The serving, cluster and tracing knobs are not part of the store: pass
    a :class:`ServingConfig`, :class:`ClusterConfig` or
    :class:`TracingConfig` to :func:`repro.serving.simulate_serving` or
    :func:`repro.cluster.run_scenario` (each defaults to its class's
    defaults).
    """

    vector_bytes: Annotated[int, AtLeast(1)] = 128
    block_bytes: Annotated[int, AtLeast(1)] = 4096
    total_cache_vectors: Annotated[int, AtLeast(1)] = 8000
    shp_iterations: Annotated[int, AtLeast(1)] = 16
    tune_thresholds: bool = True
    default_threshold: Annotated[float, NonNegative] = 50.0
    mini_cache_sampling_rate: Annotated[float, Positive, Fraction] = 0.001
    candidate_thresholds: Sequence[float] = (0, 25, 50, 100, 200, 400)
    seed: Annotated[int, AtLeast(0)] = 0
    num_workers: Annotated[
        int, OneOf(1, note="worker-sharded store replay was removed")
    ] = 1

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.block_bytes % self.vector_bytes != 0:
            raise ValueError(
                "block_bytes must be a multiple of vector_bytes "
                f"({self.block_bytes} % {self.vector_bytes} != 0)"
            )
        # Freeze the threshold list into a tuple for hashability.
        thresholds = check_thresholds(self.candidate_thresholds, "candidate_thresholds")
        object.__setattr__(self, "candidate_thresholds", thresholds)

    @property
    def vectors_per_block(self) -> int:
        """Number of vectors per NVM block (32 in the paper's configuration)."""
        return self.block_bytes // self.vector_bytes
