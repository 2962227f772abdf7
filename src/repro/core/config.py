"""Configuration objects for the end-to-end Bandana store.

The defaults reproduce the paper's end-to-end configuration (Section 5): SHP
placement trained with 16 iterations, 32 vectors per 4 KB block, a DRAM cache
budget expressed in vectors, per-table admission thresholds tuned by miniature
caches sampled at 0.1 %, and a hit-rate-curve-driven split of the DRAM budget
across tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, ClassVar, Iterable, Optional, Sequence, Set, Tuple

from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonNegative,
    OneOf,
    Positive,
    check_non_negative,
    check_positive,
    validate_fields,
)

class _TableSLOs:
    """The per-table SLO lookup :class:`ServingConfig` and :class:`ClusterConfig` share.

    ``table_slo_us`` is a ``(name, slo_us)`` tuple sequence; a table it does
    not name falls back to the config's default SLO, the field
    ``_DEFAULT_SLO`` names.
    """

    table_slo_us: Sequence[Tuple[str, float]]
    _DEFAULT_SLO: ClassVar[str]

    def _freeze_table_slos(self) -> None:
        """Freeze ``table_slo_us``, rejecting bad or duplicate entries."""
        slos = tuple((str(name), float(slo)) for name, slo in self.table_slo_us)
        seen: Set[str] = set()
        for name, slo in slos:
            check_positive(slo, f"table_slo_us[{name!r}]")
            if name in seen:
                raise ValueError(f"table_slo_us names table {name!r} more than once")
            seen.add(name)
        object.__setattr__(self, "table_slo_us", slos)

    def slo_us(self, table_name: str) -> float:
        """The admission-control latency SLO for one table."""
        for name, slo in self.table_slo_us:
            if name == table_name:
                return slo
        return getattr(self, self._DEFAULT_SLO)

    def check_slo_tables(self, known_tables: Iterable[str]) -> None:
        """Reject ``table_slo_us`` names that are not among ``known_tables``.

        Called when a run starts, before any request is served: a misspelled
        name would otherwise leave its table silently on the default SLO.
        """
        known = list(known_tables)
        for name, _ in self.table_slo_us:
            if name not in known:
                raise ValueError(
                    f"table_slo_us names table {name!r}, which the store does "
                    f"not have (known tables: {known})"
                )


@dataclass(frozen=True)
class ServingConfig(_TableSLOs):
    """Knobs of the batch-serving front-end (:mod:`repro.serving`).

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
        Per-request latency SLO; the report counts violations against it.
    closed_loop_clients:
        Client population size under ``"closed-loop"`` arrivals — a hard
        cap on in-flight requests (the concurrency invariant the tests
        pin).
    closed_loop_think_s:
        Mean think time (exponential) between a client's response and its
        next request.  The defaults offer ``32 / 0.016 s = 2000`` nominal
        rps, matching ``arrival_rate_rps``'s open-loop default.
    devices_per_host:
        Physical NVM devices in the host's bank (:mod:`repro.device`), with
        the tables pinned to them round-robin.  Each batch charges every
        device it touches once, with the summed misses of that device's
        tables.  ``1`` (the default) puts every table on one shared device —
        the paper's single-host deployment and the golden-pinned path; one
        device per table is the private-device counterfactual.
    admission_queue_slack:
        Single-host admission control, ported from the cluster tier: at
        batch dispatch, a request is shed (fast rejection, no cache or
        device work) when any of its tables' device backlog exceeds
        ``slack ×`` that table's SLO.  ``None`` (the default) disables
        shedding entirely — the golden-pinned behaviour.
    table_slo_us:
        Per-table SLO overrides for admission control, a ``(name, slo_us)``
        tuple sequence; tables not named fall back to ``slo_latency_us``
        (see :meth:`slo_us`).  A table may be named once, and only a table
        the store has (checked when a run starts).
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
    table_slo_us: Sequence[Tuple[str, float]] = ()
    seed: Annotated[Optional[int], AtLeast(0)] = None
    _DEFAULT_SLO: ClassVar[str] = "slo_latency_us"

    def __post_init__(self) -> None:
        validate_fields(self)
        self._freeze_table_slos()


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
        shape of the per-stage breakdown.
    always_sample_slo_violations:
        Retain every request whose end-to-end latency exceeded the run's
        SLO regardless of ``sample_every`` — tail regressions live in a
        handful of requests uniform sampling would miss.
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
    always_sample_slo_violations: bool = True
    max_requests: Annotated[int, AtLeast(1)] = 4096
    top_k_slow: Annotated[int, AtLeast(1)] = 5

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class ClusterConfig(_TableSLOs):
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

    Each node is one device; the per-attempt costs (node overhead, link
    delay, shard timeout, backoff, hedge-delay quantile and floor, fan-in
    overhead) are constants of :mod:`repro.cluster.node` and ``.store``.

    Retries, hedging, breaker, admission
    ------------------------------------
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
        Attempt latency counted as a "slow strike" against the breaker —
        this is what ejects persistently slow (but alive) replicas.
    breaker_cooloff_s:
        Simulated seconds an open breaker stays open before the node is
        probed again (half-open).
    admission_queue_slack:
        Queue-level admission control: a node sheds a shard read instead of
        enqueueing it when its backlog exceeds ``slack ×`` the table's SLO
        (see ``table_slo_us``), so overload degrades into fast rejections
        (picked up by another replica) rather than unbounded queueing.
    default_slo_us / table_slo_us:
        Per-table latency SLOs used by admission control; ``table_slo_us``
        is a ``(name, slo_us)`` tuple sequence overriding the default.  A
        table may be named once, and only a table the cluster serves
        (checked by :class:`~repro.cluster.store.ClusterStore`).
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
    admission_queue_slack: Annotated[float, Positive] = 4.0
    default_slo_us: Annotated[float, Positive] = 2000.0
    table_slo_us: Sequence[Tuple[str, float]] = ()
    seed: Annotated[int, AtLeast(0)] = 0
    _DEFAULT_SLO: ClassVar[str] = "default_slo_us"

    def __post_init__(self) -> None:
        validate_fields(self)
        self._freeze_table_slos()


@dataclass(frozen=True)
class TableCacheConfig:
    """Resolved per-table cache configuration (produced during the build).

    Attributes
    ----------
    cache_size_vectors:
        DRAM cache capacity assigned to the table, in vectors.
    threshold:
        Prefetch-admission threshold ``t``; ``None`` means "tune it with
        miniature caches during the build".
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
        is used everywhere.
    default_threshold:
        Admission threshold used when tuning is disabled (or as a fallback for
        tables whose tuning trace is empty).
    mini_cache_sampling_rate:
        Spatial sampling rate of the miniature caches (paper: 0.001).
    candidate_thresholds:
        Thresholds the tuner evaluates.  The paper sweeps 0–20 for its 5 B
        lookup training runs; the default here is shifted upwards because the
        scaled-down training traces concentrate more accesses per touched
        vector, so the same admission selectivity corresponds to larger
        absolute counts.
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
        thresholds = tuple(float(t) for t in self.candidate_thresholds)
        if not thresholds:
            raise ValueError("candidate_thresholds must not be empty")
        for index, threshold in enumerate(thresholds):
            check_non_negative(threshold, f"candidate_thresholds[{index}]")
        object.__setattr__(self, "candidate_thresholds", thresholds)

    @property
    def vectors_per_block(self) -> int:
        """Number of vectors per NVM block (32 in the paper's configuration)."""
        return self.block_bytes // self.vector_bytes
