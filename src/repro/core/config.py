"""Configuration objects for the end-to-end Bandana store.

The defaults reproduce the paper's end-to-end configuration (Section 5): SHP
placement trained with 16 iterations, 32 vectors per 4 KB block, a DRAM cache
budget expressed in vectors, per-table admission thresholds tuned by miniature
caches sampled at 0.1 %, and a hit-rate-curve-driven split of the DRAM budget
across tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.utils.validation import (
    check_bool,
    check_fraction,
    check_instance,
    check_int_at_least,
    check_non_negative,
    check_positive,
    check_probability,
    check_seed,
)

#: Ways of splitting the DRAM budget across tables.
ALLOCATION_POLICIES = ("hit-rate", "proportional", "uniform")

#: Placement algorithms the store knows how to build.
PARTITIONERS = ("shp", "kmeans", "recursive-kmeans", "frequency", "identity")

#: Arrival processes the serving front-end can generate.
ARRIVAL_PROCESSES = ("poisson", "mmpp", "closed-loop")


def _normalise_table_slos(
    table_slo_us: Sequence[Tuple[str, float]],
) -> Tuple[Tuple[str, float], ...]:
    """Freeze per-table SLO overrides, rejecting bad or duplicate entries."""
    slos = tuple((str(name), float(slo)) for name, slo in table_slo_us)
    seen: Set[str] = set()
    for name, slo in slos:
        check_positive(slo, f"table_slo_us[{name!r}]")
        if name in seen:
            raise ValueError(f"table_slo_us names table {name!r} more than once")
        seen.add(name)
    return slos


class _TableSLOs:
    """The per-table SLO lookup :class:`ServingConfig` and :class:`ClusterConfig` share.

    ``table_slo_us`` is a ``(name, slo_us)`` tuple sequence (frozen by
    :func:`_normalise_table_slos`); a table it does not name falls back to
    the config's default SLO.
    """

    table_slo_us: Sequence[Tuple[str, float]]

    @property
    def _default_slo_us(self) -> float:
        raise NotImplementedError

    def slo_us(self, table_name: str) -> float:
        """The admission-control latency SLO for one table."""
        for name, slo in self.table_slo_us:
            if name == table_name:
                return slo
        return self._default_slo_us

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
        Long-run request arrival rate in requests per second.  For the MMPP
        process this is the *stationary* mean rate, so sweeps over
        ``arrival_rate_rps`` offer the same average load regardless of the
        process shape.
    arrival_process:
        ``"poisson"`` (memoryless open-loop arrivals), ``"mmpp"`` (a
        two-state Markov-modulated Poisson process producing bursts) or
        ``"closed-loop"`` (a fixed population of ``closed_loop_clients``
        clients, each issuing its next request one exponential think time
        after the previous response — RPC fan-in, where saturation slows
        the clients down instead of growing the queue without bound).
    mmpp_burst_factor:
        Ratio of the bursty state's arrival rate to the quiet state's.
    mmpp_burst_fraction:
        Stationary fraction of time spent in the bursty state.
    mmpp_mean_dwell_s:
        Mean sojourn time of one visit to the bursty state, in seconds (the
        quiet state's dwell is derived from ``mmpp_burst_fraction``).
    max_batch_requests:
        Dynamic-batcher size cutoff: a batch is dispatched as soon as it
        holds this many requests.  ``1`` disables batching.
    max_linger_us:
        Dynamic-batcher time cutoff: a batch is dispatched once its oldest
        request has waited this long, full or not.
    slo_latency_us:
        Per-request latency SLO; the report counts violations against it.
    request_overhead_us:
        Fixed non-device latency added to every request (queueing-free
        front-end compute: pooling, RPC framing).
    max_device_queue_depth:
        Cap on the queue depth fed to the NVM latency model — the device
        exposes only so many submission slots, so deeper backlogs raise
        queueing delay (serial rounds) rather than device-internal depth.
    throughput_window_s:
        Trailing window over which the device clock measures its own
        throughput for the loaded-latency feedback.
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
        device per table is the private-device counterfactual.  Mirrors
        :attr:`ClusterConfig.devices_per_node`.
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

    arrival_rate_rps: float = 2000.0
    arrival_process: str = "poisson"
    mmpp_burst_factor: float = 4.0
    mmpp_burst_fraction: float = 0.2
    mmpp_mean_dwell_s: float = 0.02
    max_batch_requests: int = 16
    max_linger_us: float = 500.0
    slo_latency_us: float = 2000.0
    request_overhead_us: float = 5.0
    max_device_queue_depth: float = 64.0
    throughput_window_s: float = 0.05
    closed_loop_clients: int = 32
    closed_loop_think_s: float = 0.016
    devices_per_host: int = 1
    admission_queue_slack: Optional[float] = None
    table_slo_us: Sequence[Tuple[str, float]] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate_rps, "arrival_rate_rps")
        check_positive(self.mmpp_burst_factor, "mmpp_burst_factor")
        check_positive(self.mmpp_mean_dwell_s, "mmpp_mean_dwell_s")
        check_int_at_least(self.max_batch_requests, 1, "max_batch_requests")
        check_positive(self.slo_latency_us, "slo_latency_us")
        check_positive(self.max_device_queue_depth, "max_device_queue_depth")
        check_positive(self.throughput_window_s, "throughput_window_s")
        check_non_negative(self.max_linger_us, "max_linger_us")
        check_non_negative(self.request_overhead_us, "request_overhead_us")
        check_fraction(self.mmpp_burst_fraction, "mmpp_burst_fraction")
        check_int_at_least(self.closed_loop_clients, 1, "closed_loop_clients")
        check_positive(self.closed_loop_think_s, "closed_loop_think_s")
        check_int_at_least(self.devices_per_host, 1, "devices_per_host")
        if self.admission_queue_slack is not None:
            check_positive(self.admission_queue_slack, "admission_queue_slack")
        check_seed(self.seed, "seed")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"arrival_process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival_process!r}"
            )
        if self.arrival_process == "mmpp" and not 0 < self.mmpp_burst_fraction < 1:
            raise ValueError(
                "mmpp_burst_fraction must lie strictly between 0 and 1"
            )
        object.__setattr__(
            self, "table_slo_us", _normalise_table_slos(self.table_slo_us)
        )

    @property
    def _default_slo_us(self) -> float:
        return self.slo_latency_us


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
    sample_every: int = 1
    always_sample_slo_violations: bool = True
    max_requests: int = 4096
    top_k_slow: int = 5

    def __post_init__(self) -> None:
        check_bool(self.enabled, "enabled")
        check_bool(self.always_sample_slo_violations, "always_sample_slo_violations")
        check_int_at_least(self.sample_every, 1, "sample_every")
        check_int_at_least(self.max_requests, 1, "max_requests")
        check_int_at_least(self.top_k_slow, 1, "top_k_slow")


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
    devices_per_node:
        Physical NVM devices in each node's bank (:mod:`repro.device`).
        ``1`` (the default) keeps every node a single FIFO resource — the
        pre-bank semantics, golden-pinned; more devices spread a node's
        tables round-robin so reads of co-hosted tables stop queueing
        behind each other.

    Per-attempt costs
    -----------------
    node_overhead_us:
        Fixed per-shard-read service time on the owning node (request
        parsing, cache probing), before any NVM reads.
    link_delay_us:
        Healthy one-way network delay between the router and a node (paid
        twice per attempt).
    shard_timeout_us:
        How long the router waits for a shard read before declaring the
        attempt dead (crashed node, lost packet) and retrying.

    Retries, hedging, breaker, admission
    ------------------------------------
    retry_backoff_us / retry_backoff_cap_us:
        First retry backoff and its cap; the backoff doubles per attempt
        (capped exponential backoff), and each retry targets the shard's
        next replica.
    max_attempts:
        Total attempts (first try + retries) before a shard read is declared
        failed and the request degrades.
    hedge_enabled / hedge_quantile / hedge_min_us:
        Hedged reads: when a first attempt's observed latency exceeds the
        running ``hedge_quantile`` estimate of shard latency (never below
        ``hedge_min_us``), a duplicate read is fired at another replica and
        the earlier completion wins.  Requires ``replication >= 2``.
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

    request_overhead_us:
        Router-side fan-out/fan-in overhead added to every request.
    seed:
        Seed of the cluster's stochastic machinery (link-loss draws).
    """

    num_nodes: int = 4
    replication: int = 2
    virtual_nodes: int = 64
    devices_per_node: int = 1
    node_overhead_us: float = 5.0
    link_delay_us: float = 2.0
    shard_timeout_us: float = 1000.0
    retry_backoff_us: float = 100.0
    retry_backoff_cap_us: float = 2000.0
    max_attempts: int = 4
    hedge_enabled: bool = True
    hedge_quantile: float = 0.99
    hedge_min_us: float = 100.0
    breaker_failure_threshold: int = 5
    breaker_slow_threshold_us: float = 20000.0
    breaker_cooloff_s: float = 0.25
    admission_queue_slack: float = 4.0
    default_slo_us: float = 2000.0
    table_slo_us: Sequence[Tuple[str, float]] = ()
    request_overhead_us: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_at_least(self.num_nodes, 1, "num_nodes")
        check_int_at_least(self.replication, 1, "replication")
        check_int_at_least(self.virtual_nodes, 1, "virtual_nodes")
        check_int_at_least(self.devices_per_node, 1, "devices_per_node")
        check_int_at_least(self.max_attempts, 1, "max_attempts")
        check_int_at_least(
            self.breaker_failure_threshold, 1, "breaker_failure_threshold"
        )
        check_non_negative(self.node_overhead_us, "node_overhead_us")
        check_non_negative(self.link_delay_us, "link_delay_us")
        check_positive(self.shard_timeout_us, "shard_timeout_us")
        check_positive(self.retry_backoff_us, "retry_backoff_us")
        check_positive(self.retry_backoff_cap_us, "retry_backoff_cap_us")
        if self.retry_backoff_cap_us < self.retry_backoff_us:
            raise ValueError(
                "retry_backoff_cap_us must be >= retry_backoff_us "
                f"({self.retry_backoff_cap_us} < {self.retry_backoff_us})"
            )
        check_bool(self.hedge_enabled, "hedge_enabled")
        check_seed(self.seed, "seed")
        check_fraction(self.hedge_quantile, "hedge_quantile")
        check_positive(self.hedge_min_us, "hedge_min_us")
        check_positive(self.breaker_slow_threshold_us, "breaker_slow_threshold_us")
        check_positive(self.breaker_cooloff_s, "breaker_cooloff_s")
        check_positive(self.admission_queue_slack, "admission_queue_slack")
        check_positive(self.default_slo_us, "default_slo_us")
        check_non_negative(self.request_overhead_us, "request_overhead_us")
        object.__setattr__(
            self, "table_slo_us", _normalise_table_slos(self.table_slo_us)
        )

    @property
    def _default_slo_us(self) -> float:
        return self.default_slo_us


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

    cache_size_vectors: int
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        check_int_at_least(self.cache_size_vectors, 0, "cache_size_vectors")
        if self.threshold is not None:
            check_non_negative(self.threshold, "threshold")


@dataclass(frozen=True)
class BandanaConfig:
    """Configuration of a :class:`~repro.core.bandana.BandanaStore`.

    Attributes
    ----------
    vector_bytes:
        Bytes per embedding vector as stored on NVM (128 in the paper).
    block_bytes:
        NVM block size (4096 in the paper).  ``vectors_per_block`` is derived.
    total_cache_vectors:
        Total DRAM budget across all tables, expressed in cached vectors
        (the paper's end-to-end runs use 1–5 million; scaled runs use less).
    partitioner:
        Placement algorithm: one of :data:`PARTITIONERS`.
    shp_iterations:
        Refinement iterations per SHP bisection (paper: 16).
    kmeans_clusters:
        Cluster count when ``partitioner`` is a K-means variant.
    allocation:
        How the DRAM budget is split across tables: ``"hit-rate"`` (greedy on
        the hit-rate curves, the paper's choice), ``"proportional"`` (by
        lookup share) or ``"uniform"``.
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
    queue_depth:
        Queue depth assumed for NVM latency accounting.
    seed:
        Base random seed for all stochastic components.
    num_workers:
        Must be ``1``: the store replays in the calling process.  Kept only
        so existing callers that pass ``num_workers=1`` still construct;
        worker-sharded store replay was removed.
    serving:
        Batch-serving front-end configuration consumed by
        :func:`repro.serving.simulate_serving` (arrival process, batching
        cutoffs, SLO and device-feedback knobs).
    cluster:
        Simulated multi-node cluster topology and robustness knobs consumed
        by :mod:`repro.cluster` (sharding, replication, timeouts, hedging,
        circuit breaking, admission control).
    tracing:
        Per-request span tracing knobs consumed by :mod:`repro.tracing`
        (sampling, SLO-violator retention, sink capacity).  Disabled by
        default; enabling it changes no simulated timing, only records it.
    """

    vector_bytes: int = 128
    block_bytes: int = 4096
    total_cache_vectors: int = 8000
    partitioner: str = "shp"
    shp_iterations: int = 16
    kmeans_clusters: int = 256
    allocation: str = "hit-rate"
    tune_thresholds: bool = True
    default_threshold: float = 50.0
    mini_cache_sampling_rate: float = 0.001
    candidate_thresholds: Sequence[float] = (0, 25, 50, 100, 200, 400)
    queue_depth: float = 8.0
    seed: int = 0
    num_workers: int = 1
    serving: ServingConfig = ServingConfig()
    cluster: ClusterConfig = ClusterConfig()
    tracing: TracingConfig = TracingConfig()

    def __post_init__(self) -> None:
        check_int_at_least(self.vector_bytes, 1, "vector_bytes")
        check_int_at_least(self.block_bytes, 1, "block_bytes")
        check_int_at_least(self.total_cache_vectors, 1, "total_cache_vectors")
        check_positive(self.shp_iterations, "shp_iterations")
        check_positive(self.kmeans_clusters, "kmeans_clusters")
        check_positive(self.queue_depth, "queue_depth")
        check_int_at_least(self.num_workers, 1, "num_workers")
        if self.num_workers != 1:
            raise ValueError(
                f"num_workers must be 1, got {self.num_workers!r}: "
                "worker-sharded store replay was removed"
            )
        check_positive(self.mini_cache_sampling_rate, "mini_cache_sampling_rate")
        check_fraction(self.mini_cache_sampling_rate, "mini_cache_sampling_rate")
        check_bool(self.tune_thresholds, "tune_thresholds")
        check_seed(self.seed, "seed")
        check_instance(self.serving, ServingConfig, "serving")
        check_instance(self.cluster, ClusterConfig, "cluster")
        check_instance(self.tracing, TracingConfig, "tracing")
        if self.block_bytes % self.vector_bytes != 0:
            raise ValueError(
                "block_bytes must be a multiple of vector_bytes "
                f"({self.block_bytes} % {self.vector_bytes} != 0)"
            )
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"partitioner must be one of {PARTITIONERS}, got {self.partitioner!r}"
            )
        if self.allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"allocation must be one of {ALLOCATION_POLICIES}, got {self.allocation!r}"
            )
        check_non_negative(self.default_threshold, "default_threshold")
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
