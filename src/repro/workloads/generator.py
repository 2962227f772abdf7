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

Every draw is counter-based (:mod:`repro.utils.sampling`):
``u = splitmix64(key(seed, stream, query, slot))``.  Query ``i`` draws its
size and topic count (tabulated Poisson inverse CDFs), each topic's
fresh-or-reuse coin and its reuse index or topic uniform, the topic/global
split of its picks (Binomial(draw, :data:`TOPIC_AFFINITY`)), the slot of
each topic pick and each pick's uniform; window ``w`` draws its in-rotation
subset the same way.  So query ``i`` is a pure function of (spec, seed, i),
however ``generate`` calls are split.  The one sequential rule, BURSTINESS's
re-use of a recent topic, is a copy-from index resolved by pointer jumping,
and queries are drawn in array passes of at most
:data:`~repro.utils.sampling.RESOLVE_DRAWS` picks.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.utils import sampling
from repro.utils.sampling import (
    InverseCDFSampler,
    StackedLaws,
    binomial_laws,
    counter_uniforms,
    poisson_probabilities,
    ranks_within,
    resolve_queries,
    stream_keys,
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
#: Recent topic draws a BURSTINESS reuse picks from (a few dozen queries' worth).
MAX_RECENT_TOPICS = max(8, int(30 * TOPICS_PER_QUERY))

# The generator's random streams; each is keyed by (seed, stream id).
_STRUCTURE, _TOPIC_OF, _ROTATION, _SIZE, _COUNT, _REUSE, _TOPIC, _SPLIT, _SLOT, _PICK = range(10)

#: A query's topic count, before its floor at one.
_TOPIC_COUNT_LAW = InverseCDFSampler(poisson_probabilities(TOPICS_PER_QUERY))


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
        self._keys = stream_keys(self.seed, _PICK + 1)

        if expected_lookups is None:
            expected_lookups = paper_shaped_lookups(spec)
        self.expected_lookups = check_int_at_least(expected_lookups, 1, "expected_lookups")

        self._target_topic_size = int(round(6 * spec.avg_lookups_per_query))
        check_positive(self._target_topic_size, "target_topic_size")
        self.window_queries = max(
            1, int(round(self.expected_lookups / spec.avg_lookups_per_query))
        )

        # --- fixed latent structure ------------------------------------------
        structure_rng = np.random.default_rng(self._keys[_STRUCTURE])
        target_unique = max(
            32, int(round(spec.compulsory_miss_rate * self.expected_lookups))
        )
        self._target_unique = target_unique
        self.active_set_size = min(
            max(round(WORKING_SET_MULTIPLIER * target_unique), min(256, spec.num_vectors)),
            spec.num_vectors,
        )
        # Active ids are a random subset of the table so the original layout
        # has no accidental locality.
        self.active_ids = np.sort(
            structure_rng.choice(
                spec.num_vectors, size=self.active_set_size, replace=False
            )
        ).astype(np.int64)

        self.num_topics = min(
            max(round(self.active_set_size / self._target_topic_size), 4),
            min(spec.num_topics, max(4, self.active_set_size // 8)),
        )
        self._topic_of_active = structure_rng.integers(
            0, self.num_topics, size=self.active_set_size
        )
        self._topic_popularity = zipf_probabilities(self.num_topics, 0.9)
        self._topic_sampler = InverseCDFSampler(self._topic_popularity)

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

        # A window's laws: one row per non-empty topic over its members (the
        # active indices grouped by topic), then the window-wide law over the
        # active set, row num_topics, which an empty topic draws from too.
        self._by_topic = self._topic_of_active.argsort(kind="stable")
        members = np.bincount(self._topic_of_active, minlength=self.num_topics)
        self._members = members[members > 0]
        self._topic_ends = self._members.cumsum() - 1
        self._law_row = np.where(members > 0, np.arange(self.num_topics), self.num_topics)
        every = np.arange(self.active_set_size)
        window_row = np.full_like(every, self.num_topics)
        self._law_rows = np.concatenate((self._topic_of_active[self._by_topic], window_row))
        self._law_values = np.concatenate((self._by_topic, every))
        #: The window whose laws are tabulated, and its laws.
        self._window: Tuple[int, StackedLaws] = (0, self._window_laws(0))

        self._size_law = InverseCDFSampler(poisson_probabilities(spec.avg_lookups_per_query))
        self._split_laws, self._split_trials = binomial_laws(0, TOPIC_AFFINITY), 0
        #: Queries drawn so far, and the topics of the last few.
        self._queries_drawn, self._recent_topics = 0, np.zeros(0, dtype=np.int64)

    # --------------------------------------------------------------- windows
    def _rotation_inclusion_probabilities(self, fraction: float) -> np.ndarray:
        """Per-vector probability of being in rotation in a window.

        Persistently popular vectors are more likely to be in rotation;
        :data:`PERSISTENCE` interpolates between a uniform draw and a
        fully popularity-determined one.  Probabilities are scaled so the
        expected in-rotation count is ``fraction × active_set_size``.
        """
        # (ufunc reductions: ``sum`` / ``any`` are Python-level calls, and the
        # calibration's bisection calls this about 16 times.)
        weights = self._base_popularity ** PERSISTENCE
        weights = weights / np.add.reduce(weights)
        target_count = fraction * self.active_set_size
        probabilities = np.minimum(1.0, weights * target_count)
        # Renormalise the part below 1 to keep the expected count on target.
        for _ in range(4):
            deficit = target_count - np.add.reduce(probabilities)
            if abs(deficit) < 1e-6:
                break
            adjustable = probabilities < 1.0
            if not np.logical_or.reduce(adjustable):
                break
            probabilities[adjustable] = np.minimum(
                1.0,
                probabilities[adjustable]
                * (1.0 + deficit / max(np.add.reduce(probabilities[adjustable]), 1e-12)),
            )
        return probabilities

    def _window_laws(self, window: int) -> StackedLaws:
        """Draw window ``window``'s in-rotation subset and tabulate its laws.

        An active vector is in rotation when its uniform falls below its
        inclusion probability; if none is, the one the window's extra uniform
        names is.  The laws change only here, from window to window.
        """
        size = self.active_set_size
        uniforms = counter_uniforms(self._keys[_ROTATION], window, np.arange(size + 1))
        in_rotation = uniforms[:size] < self._window_inclusion
        if not in_rotation.any():
            in_rotation[int(uniforms[size] * size)] = True
        weights = self._base_popularity * np.where(in_rotation, 1.0, OUT_OF_ROTATION_WEIGHT)
        popularity = weights / weights.sum()
        # A topic's CDF: its running popularity since the topic began, over its total.
        cumulative = popularity[self._by_topic].cumsum()
        ends, members = self._topic_ends, self._members
        within = cumulative - np.concatenate(([0.0], cumulative[ends[:-1]])).repeat(members)
        window_cdf = popularity.cumsum()
        cdf = np.concatenate((within / within[ends].repeat(members), window_cdf / window_cdf[-1]))
        return StackedLaws(self._law_rows, cdf, self._law_values)

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
        in_rotation_mass = float(np.add.reduce(inclusion * self._base_popularity))
        if in_rotation_mass <= 0:
            return 0.0
        conditional = self._base_popularity / in_rotation_mass
        touch_given_in = -np.expm1(-lookups_per_window * conditional)
        miss_all_windows = (1.0 - inclusion * touch_given_in) ** num_windows
        return float(np.add.reduce(1.0 - miss_all_windows))

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
        rng = np.random.default_rng(self._keys[_TOPIC_OF])
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
        draws = self._draw(num_queries)
        # A pass ends at a window boundary and once RESOLVE_DRAWS picks are pending.
        window = draws.index // self.window_queries
        pending = (draws.picks.cumsum() - draws.picks) // sampling.RESOLVE_DRAWS
        cuts = ((window[1:] != window[:-1]) | (pending[1:] != pending[:-1])).nonzero()[0]
        bounds = [0] + (cuts + 1).tolist() + [num_queries]
        queries = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            # A window's laws are tabulated once, when its first pass comes.
            if self._window[0] != window[start]:
                self._window = (int(window[start]), self._window_laws(int(window[start])))
            queries += self._resolve(draws, start, stop, self._window[1])
        # Non-empty int64 arrays of active ids: nothing left for Trace to check.
        return Trace._trusted(queries, self.spec.num_vectors)

    def generate_lookups(self, num_lookups: int) -> Trace:
        """Generate a trace containing approximately ``num_lookups`` lookups."""
        num_lookups = check_int_at_least(num_lookups, 1, "num_lookups")
        num_queries = max(1, int(round(num_lookups / self.spec.avg_lookups_per_query)))
        return self.generate(num_queries)

    # ----------------------------------------------------------------- private
    def _draw(self, num_queries: int) -> "_Draws":
        """The next ``num_queries`` queries' per-query draws, as arrays."""
        keys = self._keys
        first = self._queries_drawn
        index = np.arange(first, first + num_queries)
        sizes = np.maximum(self._size_law.invert(counter_uniforms(keys[_SIZE], index, 0)), 1)
        counts = np.maximum(_TOPIC_COUNT_LAW.invert(counter_uniforms(keys[_COUNT], index, 0)), 1)
        topics = self._draw_topics(index, counts)
        # Over-draw slightly, then de-duplicate and truncate: a request
        # reads each id at most once, and popular vectors would otherwise
        # collapse heavy-skew queries well below the target size.
        picks = np.maximum(sizes + 4, (sizes * 1.4).round().astype(np.int64))
        trials = int(picks.max())
        if trials > self._split_trials:
            self._split_laws, self._split_trials = binomial_laws(trials, TOPIC_AFFINITY), trials
        topic_picks = self._split_laws.invert(picks, counter_uniforms(keys[_SPLIT], index, 0))
        self._queries_drawn += num_queries
        topic_start = np.concatenate(([0], counts.cumsum()))
        return _Draws(index, sizes, counts, topics, topic_start, picks, topic_picks)

    def _draw_topics(self, index: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Each query's topics, slot by slot, concatenated.

        With :data:`BURSTINESS` a topic re-uses one of the last
        :data:`MAX_RECENT_TOPICS` drawn before its query: a copy-from index
        into the topics so far (the carried ones first), followed by pointer
        jumping to a topic drawn from the topic law.
        """
        carried = self._recent_topics
        before = counts.cumsum() - counts + carried.size
        query, slot = index.repeat(counts), ranks_within(counts)
        recent = np.minimum(before, MAX_RECENT_TOPICS).repeat(counts)
        uniforms = counter_uniforms(self._keys[_TOPIC], query, slot)
        reuse = counter_uniforms(self._keys[_REUSE], query, slot) < BURSTINESS
        reuse &= recent > 0
        source = np.arange(carried.size + query.size)
        copied = before.repeat(counts) - recent + (uniforms * recent).astype(np.int64)
        source[carried.size :][reuse] = copied[reuse]
        while True:
            jumped = source[source]
            if not np.logical_or.reduce(jumped != source):
                break
            source = jumped
        topics = np.concatenate((carried, self._topic_sampler.invert(uniforms)))[source]
        self._recent_topics = topics[-MAX_RECENT_TOPICS:]
        return topics[carried.size :]

    def _resolve(self, draws: "_Draws", start: int, stop: int, laws: StackedLaws) -> list:
        """Queries ``start:stop`` of ``draws``, as their distinct ids.

        A query's picks are its topic picks, slot by slot (each one's slot
        drawn uniformly), then its global picks.  A pick's uniform is keyed by
        its place in the query and inverted by its law into an active-set
        index; :func:`~repro.utils.sampling.resolve_queries` cuts each query.
        """
        index = draws.index[start:stop]
        counts = draws.counts[start:stop]
        picks = draws.picks[start:stop]
        topic_picks = draws.topic_picks[start:stop]
        topics = draws.topics[draws.topic_start[start] : draws.topic_start[stop]]

        # Segments: each query's topic slots, then its global picks.
        segment_end = (counts + 1).cumsum()
        globals_at = segment_end - 1
        slots = counter_uniforms(
            self._keys[_SLOT], index.repeat(topic_picks), ranks_within(topic_picks)
        )
        slot_of_pick = (globals_at - counts).repeat(topic_picks)
        slot_of_pick += (slots * counts.repeat(topic_picks)).astype(np.int64)
        lengths = np.bincount(slot_of_pick, minlength=int(segment_end[-1]))
        lengths[globals_at] = picks - topic_picks
        law = np.empty(lengths.size, dtype=np.int64)
        law[globals_at] = self.num_topics
        # Query q's topics sit q segments (its predecessors' global ones) on.
        at = np.arange(topics.size) + np.arange(index.size).repeat(counts)
        law[at] = self._law_row[topics]

        uniforms = counter_uniforms(self._keys[_PICK], index.repeat(picks), ranks_within(picks))
        positions = laws.invert(law.repeat(lengths), uniforms)
        return resolve_queries(positions, picks, draws.sizes[start:stop], self.active_ids)


class _Draws(NamedTuple):
    """Consecutive queries' draws, as per-query arrays, except ``topics``:
    all their topics, query ``i``'s from ``topic_start[i]``.  ``index`` is
    each query's number in the generator's stream, ``picks`` the picks it
    draws before de-duplication and ``topic_picks`` how many are topic picks."""

    index: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray
    topics: np.ndarray
    topic_start: np.ndarray
    picks: np.ndarray
    topic_picks: np.ndarray


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
