"""Prefetch-admission policies (the paper's Section 4.3).

When a demand miss pulls a 4 KB block from NVM, the block carries up to 31
other vectors.  A *prefetch policy* decides, for each of those co-resident
vectors, whether it enters the DRAM cache and at which queue position.  The
paper walks through a series of policies, each implemented here:

====================  ==========================================================
Policy                 Paper experiment
====================  ==========================================================
``NoPrefetchPolicy``   the baseline: cache only the requested vector
``CacheAllBlockPolicy``  Figure 10: admit all 31 neighbours at the top
``InsertAtPositionPolicy``  Figure 11a: admit all, but lower in the queue
``ShadowAdmissionPolicy``   Figure 11b: admit only vectors present in a shadow cache
``CombinedPolicy``          Figure 11c: shadow hit → top, otherwise → position
``AccessThresholdPolicy``   Figure 12: admit only vectors seen > t times during
                            the SHP training run (Bandana's final choice)
====================  ==========================================================

A policy exposes two hooks: :meth:`PrefetchPolicy.record_access` is called for
every application-requested id (hit or miss) so stateful policies can track
demand traffic, and :meth:`PrefetchPolicy.admit` is called for each prefetch
candidate and returns the insertion position or ``None`` to reject it.

Both hooks also exist in batched form for the batch replay engine
(:mod:`repro.caching.engine`): :meth:`PrefetchPolicy.record_access_batch`
observes a whole id array in stream order, and :meth:`PrefetchPolicy.admit_batch`
maps an id array to a ``float64`` position array where ``NaN`` marks a
rejected candidate.  The stateless built-in policies implement the batched
hooks with NumPy; the scalar hooks remain the reference semantics, and the
base class provides the loop fallbacks that the two shadow policies (whose
shadow is an ordered map, one id at a time) and user policies use.
The engine replays only policies that admit at the top of the queue
(``never_admits`` or ``always_top_positions``); a policy that admits lower
down — ``InsertAtPositionPolicy`` / ``CombinedPolicy`` with ``position > 0``,
or any policy that does not declare ``always_top_positions`` — replays on the
reference loop (:func:`repro.simulation.runner.simulate_table` picks it).
``admit`` must be a pure function of the candidate id and the policy's current
state — the engine may evaluate it for candidates the reference loop would
have skipped — and an ``admit_is_static`` policy whose decisions change after
construction must say so through ``admit_version`` (see
:meth:`AccessThresholdPolicy.retune`).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.caching.lru import OrderedLRUCache
from repro.utils.validation import check_fraction, check_non_negative, check_positive


class PrefetchPolicy(abc.ABC):
    """Decides whether (and where) a prefetched vector enters the cache."""

    #: Name used in reports and benchmark output.
    name: str = "policy"

    #: True when :meth:`admit` rejects every candidate unconditionally; lets
    #: the batched engine skip the admission sweep on every miss.
    never_admits: bool = False

    #: True when :meth:`admit` is a constant function of the id for the whole
    #: replay (no evolving state), letting the batched engine cache admission
    #: decisions per block.
    admit_is_static: bool = False

    #: True when every admitted candidate enters at position 0.0 (the top of
    #: the queue): LRU order is then insertion order, which is what the batch
    #: engine's ordered map keeps.  The engine refuses a policy that admits
    #: without declaring this.
    always_top_positions: bool = False

    #: Bumped whenever an ``admit_is_static`` policy's decisions change; the
    #: batched engine compares it once per call and drops its per-block
    #: admission cache on a mismatch.  Constant for immutable policies.
    admit_version: int = 0

    def record_access(self, vector_id: int) -> None:
        """Observe an application (demand) access.  Stateless policies ignore it."""

    @abc.abstractmethod
    def admit(self, vector_id: int) -> Optional[float]:
        """Return the insertion position for a prefetched vector, or ``None``.

        Position ``0.0`` is the top (MRU end) of the eviction queue, ``1.0``
        the bottom.  ``None`` rejects the prefetch entirely.
        """

    def record_access_batch(self, vector_ids: np.ndarray) -> None:
        """Observe a batch of demand accesses, in stream order.

        The default recognises policies that never overrode the scalar hook
        (nothing to record) and otherwise falls back to a sequential loop so
        stateful scalar-only policies stay exactly equivalent.
        """
        if type(self).record_access is PrefetchPolicy.record_access:
            return
        for vector_id in np.asarray(vector_ids).tolist():
            self.record_access(vector_id)

    def admit_batch(self, vector_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`admit`: a position per id, ``NaN`` = reject.

        The default loops over the scalar hook; built-in policies override it
        with pure NumPy implementations.
        """
        positions = np.empty(len(vector_ids), dtype=np.float64)
        for index, vector_id in enumerate(np.asarray(vector_ids).tolist()):
            position = self.admit(vector_id)
            positions[index] = np.nan if position is None else position
        return positions

    def reset(self) -> None:
        """Clear any internal state (e.g. between replay runs)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NoPrefetchPolicy(PrefetchPolicy):
    """The baseline policy: only the explicitly requested vector is cached."""

    name = "no-prefetch"
    never_admits = True
    admit_is_static = True

    def admit(self, vector_id: int) -> Optional[float]:
        return None

    def admit_batch(self, vector_ids: np.ndarray) -> np.ndarray:
        return np.full(len(vector_ids), np.nan)


class CacheAllBlockPolicy(PrefetchPolicy):
    """Admit every vector of the fetched block at the top of the queue (Fig. 10)."""

    name = "cache-all-block"
    admit_is_static = True
    always_top_positions = True

    def admit(self, vector_id: int) -> Optional[float]:
        return 0.0

    def admit_batch(self, vector_ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(vector_ids))


class InsertAtPositionPolicy(PrefetchPolicy):
    """Admit every prefetched vector at a fixed lower queue position (Fig. 11a)."""

    name = "insert-at-position"
    admit_is_static = True

    def __init__(self, position: float = 0.5) -> None:
        check_fraction(position, "position")
        self.position = float(position)
        self.always_top_positions = self.position == 0.0

    def admit(self, vector_id: int) -> Optional[float]:
        return self.position

    def admit_batch(self, vector_ids: np.ndarray) -> np.ndarray:
        return np.full(len(vector_ids), self.position)

    def __repr__(self) -> str:  # pragma: no cover
        return f"InsertAtPositionPolicy(position={self.position})"


class ShadowAdmissionPolicy(PrefetchPolicy):
    """Admit a prefetched vector only if it appears in the shadow cache (Fig. 11b).

    The shadow is an id-only LRU of ``round(real_cache_size × multiplier)``
    entries that sees demand accesses only, so it holds what a no-prefetch
    cache of ``multiplier ×`` the real size would (the x-axis of Fig. 11b).
    """

    name = "shadow-admission"
    always_top_positions = True

    def __init__(self, real_cache_size: int, multiplier: float = 1.0) -> None:
        check_non_negative(real_cache_size, "real_cache_size")
        check_positive(multiplier, "multiplier")
        self.real_cache_size = int(real_cache_size)
        self.multiplier = float(multiplier)
        self.shadow = OrderedLRUCache(int(round(real_cache_size * multiplier)))

    def record_access(self, vector_id: int) -> None:
        self.shadow.insert(vector_id)

    def admit(self, vector_id: int) -> Optional[float]:
        return 0.0 if vector_id in self.shadow else None

    def reset(self) -> None:
        self.shadow.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShadowAdmissionPolicy(real_cache_size={self.real_cache_size}, "
            f"multiplier={self.multiplier})"
        )


class CombinedPolicy(ShadowAdmissionPolicy):
    """Shadow hit → top of the queue; shadow miss → lower position (Fig. 11c)."""

    name = "combined"

    def __init__(
        self,
        real_cache_size: int,
        position: float = 0.5,
        multiplier: float = 1.0,
    ) -> None:
        check_fraction(position, "position")
        super().__init__(real_cache_size, multiplier)
        self.position = float(position)
        self.always_top_positions = self.position == 0.0

    def admit(self, vector_id: int) -> Optional[float]:
        return 0.0 if vector_id in self.shadow else self.position

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CombinedPolicy(position={self.position}, multiplier={self.multiplier})"
        )


class AccessThresholdPolicy(PrefetchPolicy):
    """Admit a prefetched vector only if its SHP-run access count exceeds ``t``.

    This is the policy Bandana deploys (Section 4.3.2): the number of training
    queries that contained a vector correlates with how much confidence SHP
    had when placing it, and hence with how useful it is as a prefetch.
    ``threshold`` is the paper's ``t``; the optimal value depends on the cache
    size and is chosen by the miniature-cache tuner.
    """

    name = "access-threshold"
    admit_is_static = True
    always_top_positions = True

    def __init__(self, access_counts: np.ndarray, threshold: float) -> None:
        self.retune(access_counts, threshold)

    def retune(
        self,
        access_counts: Optional[np.ndarray] = None,
        threshold: Optional[float] = None,
    ) -> None:
        """Change the counts and/or the threshold this policy admits by.

        The one mutator: it bumps :attr:`admit_version`, which is how a warm
        batched engine learns that its cached per-block decisions are stale.
        Writing to ``access_counts`` or ``threshold`` directly re-steers the
        reference loop but not an engine that has already served.  An
        ``int64`` array is adopted without a copy, so the caller's array stays
        the one the policy reads.
        """
        if access_counts is not None:
            counts = np.asarray(access_counts, dtype=np.int64)
            if counts.ndim != 1:
                raise ValueError("access_counts must be one-dimensional")
            self.access_counts = counts
        if threshold is not None:
            check_non_negative(threshold, "threshold")
            self.threshold = float(threshold)
        self.admit_version += 1

    def admit(self, vector_id: int) -> Optional[float]:
        if vector_id >= self.access_counts.size:
            return None
        return 0.0 if self.access_counts[vector_id] > self.threshold else None

    def admit_batch(self, vector_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(vector_ids, dtype=np.int64)
        known = ids < self.access_counts.size
        counts = self.access_counts[np.where(known, ids, 0)]
        return np.where(known & (counts > self.threshold), 0.0, np.nan)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AccessThresholdPolicy(threshold={self.threshold})"
