"""Synthetic trace generation calibrated to the paper's Table 1.

The paper evaluates Bandana on production traces of user-embedding lookups.
Those traces are not public, so this module generates synthetic traces that
reproduce the statistics every Bandana mechanism depends on.  The generative
model has four ingredients, each mapping to a documented property of the
production workload:

* **Active set** — only a small fraction of a production table's 10–20 M
  vectors is in rotation over the traced period (the paper's compulsory-miss
  rates imply an hourly working set of a few percent of the table).  All
  traffic is drawn from an active set whose size is a fixed multiple
  (:data:`WORKING_SET_MULTIPLIER`) of the expected number of distinct vectors of
  the planned trace; active ids are scattered randomly over the id space so
  the original (id-ordered) layout has no accidental locality.
* **Traffic windows with drift** — production popularity shifts hour to hour.
  Each *window* (one planned-trace length) draws an
  "in-rotation" subset of the active set; vectors outside it receive only a
  small trickle of traffic.  How strongly a vector's persistent popularity
  determines its inclusion is :data:`PERSISTENCE`.  A placement
  trained on several past windows therefore predicts the *topic* a vector
  belongs to far better than whether it will be hot in the evaluation window —
  which is exactly why the paper's effective-bandwidth gains sit in the
  few-hundred-percent range rather than at the 32×-per-block ceiling.
* **Popularity skew** — inside a window, lookups follow a Zipf law
  (``spec.popularity_alpha``) over the in-rotation vectors.  Skew drives the
  hit-rate curves (Figure 3) and access histograms (Figure 4).  The
  in-rotation fraction is calibrated so the compulsory-miss rate of the
  planned trace lands near the paper's Table 1 value.
* **Co-access topics** — active vectors are grouped into latent *topics*; a
  query draws most of its ids from a couple of topics.  Vectors of the same
  topic co-occur inside queries (the locality SHP mines), and the topic
  assignment is reused by :mod:`repro.embeddings.synthesis` to give
  same-topic vectors nearby embedding-space positions (the locality K-means
  mines).  Tables with a high compulsory-miss rate yield training traces in
  which most vectors are seen at most once, so the partitioners have little
  signal — reproducing the paper's observation that such tables (e.g.
  table 8) benefit least.

Trace *density* matters as much as skew: the paper's effective-bandwidth
numbers live in a regime where the evaluation trace touches only a couple of
distinct vectors per 4 KB block.  :func:`paper_shaped_lookups` computes trace
lengths that keep that density at the scaled-down table sizes.

Everything is driven by explicit seeds so traces are reproducible.

Synthesis draws per query and resolves per batch, as
:mod:`repro.utils.sampling` describes.  A query's draws, in order: topic
count, topic choices, the topic/global split of its picks, the slot
assignment of its topic picks (``integers(count, size=k)``, through
:func:`~repro.utils.sampling.integers_below`; skipped for a one-topic query,
where it would consume nothing), and one ``random(draw)`` call for all of its
uniforms.  A batch is also resolved at each window boundary, before the
window's laws are replaced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils import sampling
from repro.utils.sampling import (
    InverseCDFSampler,
    integers_below,
    invert_sorted,
    poisson_query_sizes,
    resolve_queries,
    zipf_probabilities,
)
from repro.utils.validation import check_int_at_least, check_positive
from repro.workloads.tables_spec import PAPER_VECTORS_PER_BLOCK, TableSpec
from repro.workloads.trace import ModelTrace, Trace

#: Probability that an id is drawn from the query's topics rather than from
#: the window-wide popularity law.
TOPIC_AFFINITY = 0.8
#: Average number of topics a query draws from.
TOPICS_PER_QUERY = 2.0
#: Active-set size as a multiple of the expected distinct vectors of the
#: planned trace; see the module docstring.
WORKING_SET_MULTIPLIER = 6.0
#: How strongly a vector's persistent popularity determines whether it is in
#: rotation in a given window (0 = every window draws a fresh hot set, 1 = the
#: hot set never changes).
PERSISTENCE = 0.6
#: Relative traffic weight of active vectors that are not in rotation in the
#: current window (a small trickle).
OUT_OF_ROTATION_WEIGHT = 0.005
#: Probability that a query re-uses a topic that recent queries used
#: (consecutive requests come from overlapping user populations, so hot
#: content is hit repeatedly within a short span).  Temporal burstiness is
#: what makes prefetched block neighbours useful before they age out of a
#: small cache.
BURSTINESS = 0.6
#: Distinct vectors per 4 KB block that :func:`paper_shaped_lookups` sizes an
#: evaluation trace for.
UNIQUE_PER_BLOCK = 1.5


def paper_shaped_lookups(
    spec: TableSpec, vectors_per_block: int = PAPER_VECTORS_PER_BLOCK
) -> int:
    """Evaluation-trace length that reproduces the paper's access density.

    The paper's placement results live in a regime where the evaluation trace
    touches roughly one to a few distinct vectors per 4 KB block.  Holding the
    compulsory-miss rate at the Table 1 value, the trace length that yields
    :data:`UNIQUE_PER_BLOCK` distinct vectors per block is
    ``UNIQUE_PER_BLOCK × num_blocks / compulsory_miss_rate``.
    """
    vectors_per_block = check_int_at_least(vectors_per_block, 1, "vectors_per_block")
    num_blocks = max(1, spec.num_vectors // vectors_per_block)
    rate = max(spec.compulsory_miss_rate, 1e-4)
    return max(1, int(round(UNIQUE_PER_BLOCK * num_blocks / rate)))


class SyntheticTraceGenerator:
    """Generates access traces for one embedding table.

    Parameters
    ----------
    spec:
        Statistical description of the table (size, request mix, popularity
        skew, target compulsory-miss rate).
    seed:
        Seed of the generator's private random state.  The latent structure
        (active set, topics, persistent popularity) is fixed at construction
        time so that several traces drawn from the same generator (e.g. a
        placement-training trace and an evaluation trace) describe the same
        underlying table.
    expected_lookups:
        Trace length (in lookups) the caller plans to generate; the
        in-rotation fraction is calibrated so the compulsory-miss rate of a
        trace of that length lands near ``spec.compulsory_miss_rate``, and one
        traffic window is that length (in queries), so an evaluation trace is
        one window and a training trace several times longer spans several
        windows.  Defaults to the paper-shaped length of the table.

    A topic holds about six queries' worth of lookups, so one request samples
    a topic rather than sweeping it.
    """

    def __init__(
        self,
        spec: TableSpec,
        seed: int = 0,
        expected_lookups: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.seed = check_int_at_least(seed, 0, "seed")
        self._recent_topics: List[int] = []
        self._rng = np.random.default_rng(self.seed)

        if expected_lookups is None:
            expected_lookups = paper_shaped_lookups(spec)
        self.expected_lookups = check_int_at_least(expected_lookups, 1, "expected_lookups")

        self._target_topic_size = int(round(6 * spec.avg_lookups_per_query))
        check_positive(self._target_topic_size, "target_topic_size")
        self.window_queries = max(
            1, int(round(self.expected_lookups / spec.avg_lookups_per_query))
        )

        # --- fixed latent structure ------------------------------------------
        structure_rng = np.random.default_rng(self.seed + 1)
        target_unique = max(
            32, int(round(spec.compulsory_miss_rate * self.expected_lookups))
        )
        self._target_unique = target_unique
        self.active_set_size = int(
            np.clip(
                round(WORKING_SET_MULTIPLIER * target_unique),
                min(256, spec.num_vectors),
                spec.num_vectors,
            )
        )
        # Active ids are a random subset of the table so the original layout
        # has no accidental locality.
        self.active_ids = np.sort(
            structure_rng.choice(
                spec.num_vectors, size=self.active_set_size, replace=False
            )
        ).astype(np.int64)

        self.num_topics = int(
            np.clip(
                round(self.active_set_size / self._target_topic_size),
                4,
                min(spec.num_topics, max(4, self.active_set_size // 8)),
            )
        )
        self._topic_of_active = structure_rng.integers(
            0, self.num_topics, size=self.active_set_size
        )
        self._topic_popularity = zipf_probabilities(self.num_topics, 0.9)
        self._topic_sampler = InverseCDFSampler(self._topic_popularity)
        self._topic_members = [
            np.where(self._topic_of_active == t)[0] for t in range(self.num_topics)
        ]

        # Persistent ("base") popularity: Zipf over a random permutation of
        # the active vectors, blended with the topic traffic shares so hot
        # topics carry more traffic.
        base = zipf_probabilities(self.active_set_size, spec.popularity_alpha)
        base = base[structure_rng.permutation(self.active_set_size)]
        topic_mass = np.zeros(self.num_topics)
        np.add.at(topic_mass, self._topic_of_active, base)
        safe_mass = np.where(topic_mass > 0, topic_mass, 1.0)
        within_topic = base / safe_mass[self._topic_of_active]
        topic_term = self._topic_popularity[self._topic_of_active] * within_topic
        marginal = (1.0 - TOPIC_AFFINITY) * base + TOPIC_AFFINITY * topic_term
        self._base_popularity = marginal / marginal.sum()

        # In-rotation fraction calibrated against the compulsory-miss target;
        # the inclusion probabilities it implies are the same for every window.
        self.rotation_fraction = self._calibrate_rotation_fraction()
        self._window_inclusion = self._rotation_inclusion_probabilities(
            self.rotation_fraction
        )

        # Materialise the first traffic window.
        self._queries_in_window = 0
        self._start_new_window(self._rng)

    # --------------------------------------------------------------- windows
    def _rotation_inclusion_probabilities(self, fraction: float) -> np.ndarray:
        """Per-vector probability of being in rotation in a window.

        Persistently popular vectors are more likely to be in rotation;
        :data:`PERSISTENCE` interpolates between a uniform draw and a
        fully popularity-determined one.  Probabilities are scaled so the
        expected in-rotation count is ``fraction × active_set_size``.
        """
        weights = self._base_popularity ** PERSISTENCE
        weights = weights / weights.sum()
        target_count = fraction * self.active_set_size
        probabilities = np.minimum(1.0, weights * target_count)
        # Renormalise the part below 1 to keep the expected count on target.
        for _ in range(4):
            deficit = target_count - probabilities.sum()
            if abs(deficit) < 1e-6:
                break
            adjustable = probabilities < 1.0
            if not adjustable.any():
                break
            probabilities[adjustable] = np.minimum(
                1.0,
                probabilities[adjustable]
                * (1.0 + deficit / max(probabilities[adjustable].sum(), 1e-12)),
            )
        return probabilities

    def _start_new_window(self, rng: np.random.Generator) -> None:
        """Draw a new in-rotation subset and tabulate the window's sampling laws.

        The laws change only here, so this is the one place their samplers are
        (re)built: one over the whole active set, and one per non-empty topic
        over that topic's members.
        """
        in_rotation = rng.random(self.active_set_size) < self._window_inclusion
        if not in_rotation.any():
            in_rotation[rng.integers(self.active_set_size)] = True
        window_weights = self._base_popularity * np.where(
            in_rotation, 1.0, OUT_OF_ROTATION_WEIGHT
        )
        popularity = window_weights / window_weights.sum()
        self._popularity_sampler = InverseCDFSampler(popularity)
        # (sampler, members) per topic; a topic with no member falls back to
        # the window-wide law, whose draws already are active-set indices.
        self._topic_samplers: List[Tuple[InverseCDFSampler, Optional[np.ndarray]]] = []
        for members in self._topic_members:
            if members.size == 0:
                self._topic_samplers.append((self._popularity_sampler, None))
                continue
            weights = popularity[members]
            total = weights.sum()
            weights = (
                weights / total
                if total > 0
                else np.full(members.size, 1.0 / members.size)
            )
            self._topic_samplers.append((InverseCDFSampler(weights), members))
        self._queries_in_window = 0

    # ----------------------------------------------------------- calibration
    def _expected_unique(self, fraction: float, num_windows: float) -> float:
        """Analytic estimate of the distinct vectors touched by the planned trace.

        A vector is touched in a window either because it is in rotation (and
        receives its share of the window's traffic) or through the small
        trickle of traffic that out-of-rotation vectors keep receiving.
        """
        inclusion = self._rotation_inclusion_probabilities(fraction)
        lookups_per_window = self.expected_lookups / max(num_windows, 1.0)
        # In-rotation vectors carry essentially all of the window's traffic;
        # the small out-of-rotation trickle is deliberately ignored here so the
        # estimate stays monotone in `fraction` (it slightly under-predicts the
        # realised unique count, which is acceptable for calibration).
        in_rotation_mass = float(np.sum(inclusion * self._base_popularity))
        if in_rotation_mass <= 0:
            return 0.0
        conditional = self._base_popularity / in_rotation_mass
        touch_given_in = -np.expm1(-lookups_per_window * conditional)
        miss_all_windows = (1.0 - inclusion * touch_given_in) ** num_windows
        return float(np.sum(1.0 - miss_all_windows))

    def _calibrate_rotation_fraction(self) -> float:
        """Bisection on the in-rotation fraction matching the compulsory target."""
        target_unique = self._target_unique
        num_windows = max(
            1.0,
            self.expected_lookups
            / (self.window_queries * self.spec.avg_lookups_per_query),
        )
        low, high = 0.05, 1.0
        if self._expected_unique(high, num_windows) <= target_unique:
            return high
        if self._expected_unique(low, num_windows) >= target_unique:
            return low
        for _ in range(30):
            mid = 0.5 * (low + high)
            if self._expected_unique(mid, num_windows) < target_unique:
                low = mid
            else:
                high = mid
            if high - low < 1e-4:
                break
        return 0.5 * (low + high)

    # ------------------------------------------------------------------ public
    def topic_of(self) -> np.ndarray:
        """Topic assignment for every vector id of the table.

        Every vector — including the ones outside the current active set —
        belongs to a topic: embedding values are trained for the whole table,
        so geometry carries no signal about which vectors happen to be in the
        traced window's working set.  (That signal is only available to
        access-history-based placement, which is one of the reasons SHP beats
        K-means in the paper.)  Used by
        :func:`repro.embeddings.synthesize_topic_vectors` to correlate
        embedding geometry with co-access.
        """
        rng = np.random.default_rng(self.seed + 3)
        topics = rng.integers(0, self.num_topics, size=self.spec.num_vectors)
        topics[self.active_ids] = self._topic_of_active
        return topics.astype(np.int64)

    def generate(self, num_queries: int) -> Trace:
        """Generate a trace of ``num_queries`` lookup queries.

        Successive calls continue the same stream of traffic windows, so a
        training trace generated first and an evaluation trace generated next
        behave like consecutive slices of production traffic.
        """
        num_queries = check_int_at_least(num_queries, 1, "num_queries")
        rng = self._rng
        random = rng.random
        topic_sampler = self._topic_sampler
        # Topics travel as the uniforms that draw them; ``_resolve`` inverts
        # them.  One carried over from the last call re-enters as the lowest
        # uniform that draws it.
        recent = topic_sampler.lowest_uniforms(self._recent_topics).tolist()
        # Keep a short horizon of recent topics (a few dozen queries' worth).
        max_recent = max(8, int(30 * TOPICS_PER_QUERY))
        cap = sampling.RESOLVE_DRAWS
        queries: List[np.ndarray] = []
        window = _WindowDraws()
        for size in poisson_query_sizes(rng, self.spec.avg_lookups_per_query, num_queries):
            if self._queries_in_window >= self.window_queries:
                queries += self._resolve(window)
                window = _WindowDraws()
                self._start_new_window(rng)
            self._queries_in_window += 1
            # The query's topics, re-using recently hot ones with BURSTINESS.
            count = max(1, int(rng.poisson(TOPICS_PER_QUERY)))
            topics = []
            for _ in range(count):
                if recent and random() < BURSTINESS:
                    topics.append(recent[rng.integers(len(recent))])
                else:
                    topics.append(random())
            window.laws += topics
            window.laws.append(1.0)  # the global picks' law
            recent += topics
            if len(recent) > max_recent:
                del recent[:-max_recent]
            # Over-draw slightly, then de-duplicate and truncate: a request
            # reads each id at most once, and popular vectors would otherwise
            # collapse heavy-skew queries well below the target size.
            draw = max(size + 4, int(round(size * 1.4)))
            topic_picks = int(rng.binomial(draw, TOPIC_AFFINITY))
            # A query with one topic puts every topic pick on it; drawing
            # that assignment would consume nothing.
            if topic_picks and count > 1:
                window.slots.append(integers_below(rng, count, topic_picks))
            window.uniforms.append(random(draw))
            window.sizes.append(size)
            window.counts.append(count)
            window.topic_picks.append(topic_picks)
            window.drawn += draw
            if window.drawn >= cap:
                queries += self._resolve(window)
                window = _WindowDraws()
        queries += self._resolve(window)
        self._recent_topics = topic_sampler.invert(np.array(recent)).tolist()
        # Non-empty int64 arrays of active ids: nothing left for Trace to check.
        return Trace._trusted(queries, self.spec.num_vectors)

    def generate_lookups(self, num_lookups: int) -> Trace:
        """Generate a trace containing approximately ``num_lookups`` lookups."""
        num_lookups = check_int_at_least(num_lookups, 1, "num_lookups")
        num_queries = max(1, int(round(num_lookups / self.spec.avg_lookups_per_query)))
        return self.generate(num_queries)

    # ----------------------------------------------------------------- private
    def _resolve(self, window: "_WindowDraws") -> List[np.ndarray]:
        """Turn the pending queries' uniforms into their distinct ids.

        A query's uniforms are its topic picks, slot by slot (as many for a
        slot as the slot assignment gave it), then its global picks: the order
        in which a per-query loop would draw them.  The segments' topics are
        inverted in one search, then each law inverts all of its uniforms in
        one search, into active-set indices, and
        :func:`~repro.utils.sampling.resolve_queries` cuts each query.
        """
        num = len(window.sizes)
        if num == 0:
            return []
        uniforms = np.concatenate(window.uniforms)
        draws = np.fromiter(map(len, window.uniforms), np.int64, num)
        counts = np.array(window.counts, dtype=np.int64)
        topic_picks = np.array(window.topic_picks, dtype=np.int64)

        # A query's uniforms are segments: one per topic slot, as long as the
        # slot assignment made it, then its global picks.  Segment i draws
        # from the law window.laws[i] inverts to.
        segments = counts + 1
        segment_start = segments.cumsum() - segments
        slot_of_pick = segment_start.repeat(topic_picks)
        if window.slots:
            slot_of_pick[(counts > 1).repeat(topic_picks)] += np.concatenate(window.slots)
        lengths = np.bincount(slot_of_pick, minlength=len(window.laws))
        lengths[segment_start + counts] = draws - topic_picks
        # (A one- or two-byte law index sorts by radix.)
        law_dtype = np.min_scalar_type(self.num_topics)
        law = invert_sorted(self._topic_sampler, np.array(window.laws))
        law = law.astype(law_dtype).repeat(lengths)

        # Active-set index of every uniform, one law at a time.
        by_law = law.argsort(kind="stable")
        bounds = [0] + np.bincount(law, minlength=self.num_topics + 1).cumsum().tolist()
        laws = self._topic_samplers + [(self._popularity_sampler, None)]
        picks = np.empty(uniforms.size, dtype=np.int64)
        for (sampler, members), start, stop in zip(laws, bounds[:-1], bounds[1:]):
            if stop == start:
                continue
            at = by_law[start:stop]
            drawn = invert_sorted(sampler, uniforms[at])
            picks[at] = drawn if members is None else members[drawn]
        sizes = np.array(window.sizes, dtype=np.int64)
        return resolve_queries(picks, draws, sizes, self.active_ids)


class _WindowDraws:
    """One traffic window's draws, in draw order, not yet resolved to ids."""

    __slots__ = ("sizes", "counts", "topic_picks", "laws", "slots", "uniforms", "drawn")

    def __init__(self) -> None:
        #: Uniforms drawn so far (the length of ``uniforms``, concatenated).
        self.drawn = 0
        self.sizes: List[int] = []
        self.counts: List[int] = []
        self.topic_picks: List[int] = []
        #: The uniform that draws each segment's law: each query's topics,
        #: then 1.0, which inverts past the last topic to the window-wide
        #: law's index (``num_topics``).
        self.laws: List[float] = []
        #: Slot assignment of the topic picks of each query with several
        #: topics (and at least one topic pick).
        self.slots: List[np.ndarray] = []
        self.uniforms: List[np.ndarray] = []


def generate_model_trace(
    specs: Dict[str, TableSpec],
    total_lookups: int,
    seed: int = 0,
) -> ModelTrace:
    """Generate a full-model trace across all tables.

    Each table's trace is sized so its share of ``total_lookups`` matches
    Table 1 (the characterisation experiments).

    Parameters
    ----------
    specs:
        Per-table statistical specs (e.g. from :func:`scaled_table_specs`).
    total_lookups:
        Target number of lookups summed over all tables (an integer >= 1).
    seed:
        Base seed; each table uses ``seed + table index``.
    """
    check_int_at_least(total_lookups, 1, "total_lookups")
    check_int_at_least(seed, 0, "seed")
    tables = {}
    for index, (name, spec) in enumerate(specs.items()):
        table_lookups = max(1, int(round(total_lookups * spec.lookup_share)))
        generator = SyntheticTraceGenerator(
            spec, seed=seed + index, expected_lookups=table_lookups
        )
        tables[name] = generator.generate_lookups(table_lookups)
    return ModelTrace(tables)
