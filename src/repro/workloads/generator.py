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
  (``working_set_multiplier``) of the expected number of distinct vectors of
  the planned trace; active ids are scattered randomly over the id space so
  the original (id-ordered) layout has no accidental locality.
* **Traffic windows with drift** — production popularity shifts hour to hour.
  Each *window* (by default, one planned-trace length) draws an
  "in-rotation" subset of the active set; vectors outside it receive only a
  small trickle of traffic.  How strongly a vector's persistent popularity
  determines its inclusion is the ``persistence`` parameter.  A placement
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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.sampling import (
    InverseCDFSampler,
    first_occurrences,
    zipf_probabilities,
)
from repro.utils.validation import check_fraction, check_int_at_least, check_positive
from repro.workloads.tables_spec import PAPER_VECTORS_PER_BLOCK, TableSpec
from repro.workloads.trace import ModelTrace, Trace


def paper_shaped_lookups(
    spec: TableSpec,
    vectors_per_block: int = PAPER_VECTORS_PER_BLOCK,
    unique_per_block: float = 1.5,
) -> int:
    """Evaluation-trace length that reproduces the paper's access density.

    The paper's placement results live in a regime where the evaluation trace
    touches roughly one to a few distinct vectors per 4 KB block.  Holding the
    compulsory-miss rate at the Table 1 value, the trace length that yields
    ``unique_per_block`` distinct vectors per block is
    ``unique_per_block × num_blocks / compulsory_miss_rate``.
    """
    check_positive(unique_per_block, "unique_per_block")
    check_positive(vectors_per_block, "vectors_per_block")
    num_blocks = max(1, spec.num_vectors // vectors_per_block)
    rate = max(spec.compulsory_miss_rate, 1e-4)
    return max(1, int(round(unique_per_block * num_blocks / rate)))


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
        traffic window defaults to that length.  Defaults to the paper-shaped
        length of the table.
    topic_affinity:
        Probability that an id is drawn from the query's topics rather than
        from the window-wide popularity law.
    topics_per_query:
        Average number of topics a query draws from.
    target_topic_size:
        Desired number of active vectors per topic.  Defaults to a few times
        the per-topic draws of a single query, so one request samples a topic
        rather than sweeping it.
    working_set_multiplier:
        Active-set size as a multiple of the expected distinct vectors of the
        planned trace (default 6); see the module docstring.
    persistence:
        How strongly a vector's persistent popularity determines whether it is
        in rotation in a given window (0 = every window draws a fresh hot set,
        1 = the hot set never changes).
    out_of_rotation_weight:
        Relative traffic weight of active vectors that are not in rotation in
        the current window (a small trickle, default 0.005).
    window_queries:
        Number of queries per traffic window.  Defaults to the number of
        queries of the planned trace, i.e. an evaluation trace is one window
        and a training trace several times longer spans several windows.
    burstiness:
        Probability that a query re-uses a topic that recent queries used
        (consecutive requests come from overlapping user populations, so hot
        content is hit repeatedly within a short span).  Temporal burstiness
        is what makes prefetched block neighbours useful before they age out
        of a small cache.
    """

    def __init__(
        self,
        spec: TableSpec,
        seed: int = 0,
        expected_lookups: Optional[int] = None,
        topic_affinity: float = 0.8,
        topics_per_query: float = 2.0,
        target_topic_size: Optional[int] = None,
        working_set_multiplier: float = 6.0,
        persistence: float = 0.6,
        out_of_rotation_weight: float = 0.005,
        window_queries: Optional[int] = None,
        burstiness: float = 0.6,
    ) -> None:
        check_fraction(topic_affinity, "topic_affinity")
        check_positive(topics_per_query, "topics_per_query")
        check_positive(working_set_multiplier, "working_set_multiplier")
        check_fraction(persistence, "persistence")
        check_fraction(out_of_rotation_weight, "out_of_rotation_weight")
        check_fraction(burstiness, "burstiness")
        self.spec = spec
        self.seed = int(seed)
        self.topic_affinity = float(topic_affinity)
        self.topics_per_query = float(topics_per_query)
        self.working_set_multiplier = float(working_set_multiplier)
        self.persistence = float(persistence)
        self.out_of_rotation_weight = float(out_of_rotation_weight)
        self.burstiness = float(burstiness)
        self._recent_topics: list = []
        self._rng = np.random.default_rng(self.seed)

        if expected_lookups is None:
            expected_lookups = paper_shaped_lookups(spec)
        check_positive(expected_lookups, "expected_lookups")
        self.expected_lookups = int(expected_lookups)

        if target_topic_size is None:
            target_topic_size = int(round(6 * spec.avg_lookups_per_query))
        check_positive(target_topic_size, "target_topic_size")
        self._target_topic_size = int(target_topic_size)

        expected_queries = max(
            1, int(round(self.expected_lookups / spec.avg_lookups_per_query))
        )
        if window_queries is None:
            window_queries = expected_queries
        check_positive(window_queries, "window_queries")
        self.window_queries = int(window_queries)

        # --- fixed latent structure ------------------------------------------
        structure_rng = np.random.default_rng(self.seed + 1)
        target_unique = max(
            32, int(round(spec.compulsory_miss_rate * self.expected_lookups))
        )
        self._target_unique = target_unique
        self.active_set_size = int(
            np.clip(
                round(self.working_set_multiplier * target_unique),
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
        marginal = (1.0 - self.topic_affinity) * base + self.topic_affinity * topic_term
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

        Persistently popular vectors are more likely to be in rotation; the
        ``persistence`` parameter interpolates between a uniform draw and a
        fully popularity-determined one.  Probabilities are scaled so the
        expected in-rotation count is ``fraction × active_set_size``.
        """
        weights = self._base_popularity ** self.persistence
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
            in_rotation, 1.0, self.out_of_rotation_weight
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
        spec = self.spec
        queries = []
        # Pre-draw query sizes; at least one lookup per query.
        sizes = rng.poisson(lam=spec.avg_lookups_per_query, size=num_queries)
        for size in np.maximum(sizes, 1).tolist():
            if self._queries_in_window >= self.window_queries:
                self._start_new_window(rng)
            self._queries_in_window += 1
            query_topic_count = max(1, int(rng.poisson(self.topics_per_query)))
            topics = self._choose_query_topics(query_topic_count, rng)
            queries.append(self._draw_query_ids(size, topics, rng))
        # Non-empty int64 arrays of active ids: nothing left for Trace to check.
        return Trace._trusted(queries, spec.num_vectors)

    def _choose_query_topics(self, count: int, rng: np.random.Generator) -> List[int]:
        """Choose a query's topics, re-using recently hot topics with ``burstiness``."""
        recent = self._recent_topics
        topics = []
        for _ in range(count):
            if recent and rng.random() < self.burstiness:
                topics.append(recent[rng.integers(len(recent))])
            else:
                topics.append(int(self._topic_sampler.draw(rng)))
        recent.extend(topics)
        # Keep a short horizon of recent topics (a few dozen queries' worth).
        max_recent = max(8, int(30 * self.topics_per_query))
        if len(recent) > max_recent:
            del recent[:-max_recent]
        return topics

    def generate_lookups(self, num_lookups: int) -> Trace:
        """Generate a trace containing approximately ``num_lookups`` lookups."""
        check_positive(num_lookups, "num_lookups")
        num_queries = max(1, int(round(num_lookups / self.spec.avg_lookups_per_query)))
        return self.generate(num_queries)

    # ----------------------------------------------------------------- private
    def _draw_query_ids(
        self, size: int, topics: List[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw the (distinct) ids of a single query (real table ids)."""
        # Over-draw slightly, then de-duplicate and truncate: a request reads
        # each id at most once, and popular vectors would otherwise collapse
        # heavy-skew queries well below the target size.
        draw = max(size + 4, int(round(size * 1.4)))
        num_topic_picks = int(rng.binomial(draw, self.topic_affinity))
        num_global_picks = draw - num_topic_picks

        parts = []
        if num_topic_picks:
            # Spread the topic picks across the query's chosen topics, then
            # batch-draw per topic (much faster than one draw at a time).
            per_topic = np.bincount(
                rng.integers(0, len(topics), size=num_topic_picks),
                minlength=len(topics),
            )
            for topic, count in zip(topics, per_topic.tolist()):
                if count == 0:
                    continue
                sampler, members = self._topic_samplers[topic]
                picks = sampler.draw(rng, count)
                parts.append(picks if members is None else members[picks])
        if num_global_picks:
            parts.append(self._popularity_sampler.draw(rng, num_global_picks))

        # Keep first occurrences in draw order, truncated to the target size,
        # then map active-set indices to real table ids.
        distinct_in_order = first_occurrences(np.concatenate(parts))[:size]
        return self.active_ids[distinct_in_order]


def generate_model_trace(
    specs: Dict[str, TableSpec],
    total_lookups: Optional[int] = None,
    seed: int = 0,
    generators: Optional[Dict[str, "SyntheticTraceGenerator"]] = None,
    split: str = "share",
    lookups_scale: float = 1.0,
) -> ModelTrace:
    """Generate a full-model trace across all tables.

    Parameters
    ----------
    specs:
        Per-table statistical specs (e.g. from :func:`scaled_table_specs`).
    total_lookups:
        Target number of lookups summed over all tables.  Required when
        ``split="share"``; ignored when ``split="paper-shaped"``.
    seed:
        Base seed; each table uses ``seed + table index``.
    generators:
        Optional pre-built generators (so a training trace and an evaluation
        trace can share the same latent structure).
    split:
        ``"share"`` sizes each table's trace so its share of total lookups
        matches Table 1 (used for the characterisation experiments);
        ``"paper-shaped"`` sizes each table's trace to reproduce the paper's
        access density (used for the bandwidth experiments).
    lookups_scale:
        Multiplier applied to every table's lookup count (used e.g. to build a
        training trace several times longer than the evaluation trace).
    """
    check_positive(lookups_scale, "lookups_scale")
    if split not in ("share", "paper-shaped"):
        raise ValueError(f"split must be 'share' or 'paper-shaped', got {split!r}")
    if split == "share" and total_lookups is None:
        raise ValueError("total_lookups is required when split='share'")

    tables = {}
    for index, (name, spec) in enumerate(specs.items()):
        if split == "share":
            table_lookups = max(1, int(round(total_lookups * spec.lookup_share)))
        else:
            table_lookups = paper_shaped_lookups(spec)
        table_lookups = max(1, int(round(table_lookups * lookups_scale)))
        if generators is not None and name in generators:
            generator = generators[name]
        else:
            generator = SyntheticTraceGenerator(
                spec, seed=seed + index, expected_lookups=table_lookups
            )
        tables[name] = generator.generate_lookups(table_lookups)
    return ModelTrace(tables)


def build_generators(
    specs: Dict[str, TableSpec],
    seed: int = 0,
    expected_lookups: Optional[Dict[str, int]] = None,
    **kwargs: object,
) -> Dict[str, SyntheticTraceGenerator]:
    """Build one generator per table.

    Useful when the same latent table structure must back several traces
    (placement training, threshold tuning, evaluation).  ``expected_lookups``
    optionally overrides the per-table calibration length (defaults to the
    paper-shaped length).
    """
    generators = {}
    for index, (name, spec) in enumerate(specs.items()):
        lookups = None
        if expected_lookups is not None and name in expected_lookups:
            lookups = int(expected_lookups[name])
        generators[name] = SyntheticTraceGenerator(
            spec, seed=seed + index, expected_lookups=lookups, **kwargs
        )
    return generators
