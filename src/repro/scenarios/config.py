"""Configuration dataclasses of the adversarial-workload subsystem.

Three validated, frozen configs — the same idiom as :mod:`repro.core.config`
(every knob declares its constraint on the field, enforced by repro-lint R4):

* :class:`ScenarioConfig` — one adversarial access pattern (popularity
  *drift* or a *flash crowd* on previously-cold ids).
* :class:`TraceLoaderConfig` — a streaming external-trace source (the
  Twitter production cache-trace CSV layout, or a generic columnar
  ``query_id,key`` format) normalised into the engine's dense-id contract.
* :class:`RepartitionConfig` — the online re-partitioning lifecycle that
  periodically retrains the placement on a trailing access window and swaps
  it live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonEmpty,
    OneOf,
    Positive,
    validate_fields,
)

#: Adversarial access patterns the scenario generator can produce.
SCENARIO_KINDS = ("drift", "flash-crowd")

#: External trace formats the streaming loader understands.
TRACE_FORMATS = ("twitter", "columnar")

#: Ids per co-access community: a contiguous span of the popularity ranking
#: that one query focuses on (:mod:`repro.scenarios.generators`).
COMMUNITY_SIZE = 64

#: Where a flash crowd begins, as a fraction of the trace.
FLASH_START_FRACTION = 0.5


@dataclass(frozen=True)
class ScenarioConfig:
    """One adversarial workload scenario for a single embedding table.

    Attributes
    ----------
    kind:
        ``"drift"`` (the Zipf-popular id ranking rotates over time, so the
        hot set a placement was trained on slides out from under it)
        or ``"flash-crowd"`` (a sudden traffic spike concentrated on
        previously-cold ids).
    num_queries:
        Queries in the generated trace.
    avg_lookups_per_query:
        Mean ids per query (Poisson-sized, at least one).
    num_vectors:
        Size of the table's id universe; at least :data:`COMMUNITY_SIZE`,
        the span of one co-access community.
    drift_rotation_per_epoch:
        Fraction of the id ranking rotated at every epoch boundary
        (``0`` freezes the ranking — the stationary control arm).
    drift_epoch_queries:
        Queries per drift epoch; the ranking rotates between epochs.
    drift_start_fraction:
        Fraction of the trace before the first rotation.  Setting it to the
        training split's ``train_fraction`` models the canonical failure:
        a stationary history that starts drifting right after the offline
        pipeline trained on it (``0`` drifts from the very first epoch).
    flash_duration_fraction:
        How long the flash crowd lasts, as a fraction of the trace; it
        begins at :data:`FLASH_START_FRACTION`, so at most
        ``1 - FLASH_START_FRACTION``.
    flash_crowd_ids:
        How many previously-cold ids (the bottom of the popularity ranking)
        the crowd converges on.
    flash_traffic_share:
        Fraction of in-flash lookups diverted to the crowd ids.
    seed:
        Seed of the generator's private random stream.
    """

    kind: Annotated[str, OneOf(*SCENARIO_KINDS)] = "drift"
    num_queries: Annotated[int, AtLeast(1)] = 2000
    avg_lookups_per_query: Annotated[float, Positive] = 24.0
    num_vectors: Annotated[int, AtLeast(COMMUNITY_SIZE)] = 4096
    drift_rotation_per_epoch: Annotated[float, Fraction] = 0.05
    drift_epoch_queries: Annotated[int, AtLeast(1)] = 250
    drift_start_fraction: Annotated[float, Fraction] = 0.0
    flash_duration_fraction: Annotated[float, Fraction] = 0.2
    flash_crowd_ids: Annotated[int, AtLeast(1)] = 64
    flash_traffic_share: Annotated[float, Fraction] = 0.7
    seed: Annotated[int, AtLeast(0)] = 0

    def __post_init__(self) -> None:
        validate_fields(self)
        if FLASH_START_FRACTION + self.flash_duration_fraction > 1.0:
            raise ValueError(
                "flash_duration_fraction must be <= 1 - FLASH_START_FRACTION = "
                f"{1.0 - FLASH_START_FRACTION}, got {self.flash_duration_fraction}"
            )
        if self.flash_crowd_ids > self.num_vectors:
            raise ValueError(
                f"flash_crowd_ids ({self.flash_crowd_ids}) cannot exceed "
                f"num_vectors ({self.num_vectors})"
            )


@dataclass(frozen=True)
class TraceLoaderConfig:
    """A streaming external cache-trace source.

    Attributes
    ----------
    path:
        Path of the trace file (plain CSV; no network access).
    format:
        ``"twitter"`` — the Twitter production cache-trace CSV layout
        (``timestamp,key,key_size,value_size,client_id,operation,ttl``),
        where consecutive rows sharing ``(timestamp, client_id)`` form one
        multi-get query, and only ``get``/``gets`` rows are kept (mutations
        such as ``set``, ``add`` and ``delete`` are dropped, as a read-path
        store sees the trace); or ``"columnar"`` — a generic two-column
        ``query_id,key`` layout, where consecutive rows sharing a
        ``query_id`` form one query.
    chunk_queries:
        Queries per streamed chunk (the chunked and whole-file paths are
        bit-identical for every value — pinned by the equivalence test).
    max_queries:
        Optional cap on the number of queries loaded.
    """

    path: Annotated[str, NonEmpty]
    format: Annotated[str, OneOf(*TRACE_FORMATS)] = "twitter"
    chunk_queries: Annotated[int, AtLeast(1)] = 1024
    max_queries: Annotated[Optional[int], AtLeast(1)] = None

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True)
class RepartitionConfig:
    """The online re-partitioning lifecycle.

    Each retrain runs SHP on the trailing window and refreshes the admission
    policy's per-vector access counts from it; the placement is swapped in
    at once, and DRAM residency survives every swap.

    Attributes
    ----------
    cadence_queries:
        A retrain is triggered every ``cadence_queries`` served queries.
    window_queries:
        Trailing access window the retrain sees (most recent queries).
    min_window_queries:
        A trigger with fewer observed queries than this is skipped (too
        little signal to retrain on).  At most ``window_queries``: the
        window never holds more.
    shp_iterations:
        Refinement iterations per SHP bisection when retraining.
    seed:
        Seed of the retrained partitioner.
    """

    cadence_queries: Annotated[int, AtLeast(1)] = 500
    window_queries: Annotated[int, AtLeast(1)] = 1000
    min_window_queries: Annotated[int, AtLeast(1)] = 64
    shp_iterations: Annotated[int, AtLeast(1)] = 8
    seed: Annotated[int, AtLeast(0)] = 0

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.min_window_queries > self.window_queries:
            raise ValueError(
                f"min_window_queries ({self.min_window_queries}) cannot exceed "
                f"window_queries ({self.window_queries}): the trailing window "
                "would never reach it"
            )
