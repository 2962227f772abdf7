"""Serving a DLRM-style recommendation model from NVM-backed embeddings.

The scenario from the paper's introduction: a ranking service must score many
candidate posts per user request.  User-embedding tables are moved from DRAM
to NVM behind a :class:`repro.BandanaStore`; the dense ranking network stays
in DRAM and consumes the pooled embedding features the store returns.

The script builds a two-table model (a "pages liked" table and a "clicks"
table), checks that the NVM-backed store ranks exactly like an all-DRAM
reference, and then drives the store through the event-driven batch-serving
front-end (:mod:`repro.serving`): an open-loop Poisson arrival stream is
queued, dynamically batched and served by the NVM device's submission
slots, yielding the end-to-end latency percentiles,
throughput and SLO behaviour a user of the service would see — batched
versus unbatched, at a comfortable load and near device saturation.

Two production-shaped variations follow: an overload served on the host's
one *shared* NVM device (``ServingConfig.devices_per_host = 1``, the
default — both tables pinned to one physical device, so one table's miss
burst inflates the other's tail) with admission control shedding against
the SLO, and a **closed-loop** client population (fixed concurrency + think
time) whose feedback turns the open loop's queueing blow-up into a
throughput plateau.

Run with ``python examples/recommendation_serving.py`` (no ``PYTHONPATH``
needed).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import numpy as np

from repro import BandanaConfig, BandanaStore, ServingConfig
from repro.embeddings import (
    EmbeddingModel,
    EmbeddingTable,
    RecommendationModel,
    synthesize_topic_vectors,
)
from repro.nvm import DRAMModel
from repro.serving import simulate_serving
from repro.workloads import SyntheticTraceGenerator, scaled_table_specs, paper_shaped_lookups
from repro.workloads.trace import ModelTrace


def build_workload():
    """Two user-embedding tables with consistent traces and values."""
    specs = scaled_table_specs(1 / 1000, names=["table1", "table7"])
    train, evaluation = {}, {}
    embedding_model = EmbeddingModel()
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(spec, seed=10 + index, expected_lookups=lookups)
        train[name] = generator.generate_lookups(3 * lookups)
        # A stream long enough that overload outlasts the SLO.
        evaluation[name] = generator.generate_lookups(4 * lookups)
        values = synthesize_topic_vectors(generator.topic_of(), dim=32, noise=0.45, seed=index)
        embedding_model.add_table(
            EmbeddingTable(name, spec.num_vectors, dim=32, values=values)
        )
    return specs, ModelTrace(train), ModelTrace(evaluation), embedding_model


def check_ranking_agreement(store, ranking_model, eval_trace, num_requests=32):
    """The store must rank exactly like all-DRAM: Bandana moves data, not math."""
    names = list(eval_trace.tables)
    mismatches = 0
    for i in range(num_requests):
        request = {name: eval_trace[name].queries[i] for name in names}
        pooled_from_store = store.pooled_features(request)
        score = ranking_model.score(request, pooled=pooled_from_store)
        if not np.isclose(score, ranking_model.score(request)):
            mismatches += 1
    return mismatches


def main() -> None:
    specs, train_trace, eval_trace, embedding_model = build_workload()
    ranking_model = RecommendationModel(embedding_model)

    working_set = sum(t.unique_vectors().size for t in eval_trace.tables.values())
    store = BandanaStore.build(
        train_trace,
        BandanaConfig(
            total_cache_vectors=int(working_set * 0.9),
            mini_cache_sampling_rate=0.25,
            seed=1,
        ),
        embedding_model=embedding_model,
    )
    print("per-table cache configuration:")
    for name, state in store.tables.items():
        print(
            f"  {name}: cache {state.cache_config.cache_size_vectors} vectors, "
            f"admission threshold t={state.cache_config.threshold:.0f}"
        )

    mismatches = check_ranking_agreement(store, ranking_model, eval_trace)
    print(f"\nranking agreement vs all-DRAM reference: {mismatches} mismatches")

    # ---------------------------------------------------------------- serving
    # Drive the same evaluation stream through the batch-serving front-end at
    # two offered loads: comfortable, and past the device's saturation point.
    slo_us = 2000.0
    print(f"\nopen-loop serving (Poisson arrivals, SLO {slo_us:.0f} us):")
    print(f"{'rate (rps)':>11} | {'arm':<9} | {'p50':>6} | {'p95':>7} | "
          f"{'p99':>7} | {'tput (rps)':>10} | {'SLO miss':>8} | {'hit rate':>8}")
    reports = {}
    for rate in (4_000, 400_000):
        for arm, knobs in (
            ("batched", dict(max_batch_requests=16, max_linger_us=300.0)),
            ("unbatched", dict(max_batch_requests=1)),
        ):
            report = simulate_serving(
                store,
                eval_trace,
                ServingConfig(arrival_rate_rps=rate, slo_latency_us=slo_us, **knobs),
            )
            reports[(rate, arm)] = report
            latency = report.latency
            print(
                f"{rate:>11,} | {arm:<9} | {latency.p50_us:>6,.0f} | "
                f"{latency.p95_us:>7,.0f} | {latency.p99_us:>7,.0f} | "
                f"{report.throughput_rps:>10,.0f} | "
                f"{100 * report.slo_violation_rate:>7.1f}% | "
                f"{100 * report.hit_rate:>7.1f}%"
            )

    hot = reports[(400_000, "batched")]
    print(
        f"\nat 400k rps the batcher forms ~{hot.mean_batch_size:.1f}-request "
        f"batches and the device prices its reads at queue depth "
        f"~{hot.mean_queue_depth:.0f}"
    )

    # ------------------------------------------------- shared device + shedding
    # The paper's single host puts *all* tables behind the same physical NVM
    # device — the default one-device bank, where each batch's misses from
    # both tables are served together.  Push it past saturation, then let
    # admission control shed against the SLO.
    print("\nshared NVM device at 1M rps (both tables on one device):")
    for label, slack in (("no shedding", None), ("shed at 1.0x SLO backlog", 1.0)):
        report = simulate_serving(
            store,
            eval_trace,
            ServingConfig(
                arrival_rate_rps=1_000_000,
                slo_latency_us=slo_us,
                max_batch_requests=16,
                max_linger_us=300.0,
                admission_queue_slack=slack,
            ),
        )
        print(
            f"  {label:<24}: p99 {report.latency.p99_us:>7,.0f} us, "
            f"SLO miss {100 * report.slo_violation_rate:>5.1f}%, "
            f"shed {100 * report.shed_rate:>5.1f}% "
            f"({report.requests_shed} requests)"
        )

    # --------------------------------------------------------- closed loop
    # A fixed population of RPC clients (at most one request in flight each,
    # exponential think time) offering the same nominal rate: saturation
    # slows the *clients* down instead of growing the queue without bound.
    clients, think_s = 64, 64 / 400_000
    closed = simulate_serving(
        store,
        eval_trace,
        ServingConfig(
            arrival_process="closed-loop",
            closed_loop_clients=clients,
            closed_loop_think_s=think_s,
            slo_latency_us=slo_us,
            max_batch_requests=16,
            max_linger_us=300.0,
        ),
    )
    print(
        f"\nclosed loop, same offered load ({clients} clients, "
        f"{1e3 * think_s:.2f} ms think = {closed.offered_rate_rps:,.0f} rps "
        f"nominal): tput {closed.throughput_rps:,.0f} rps, "
        f"p99 {closed.latency.p99_us:,.0f} us, "
        f"SLO miss {100 * closed.slo_violation_rate:.1f}% — concurrency is "
        "capped at the population, so the tail stays bounded"
    )

    # ----------------------------------------------------------------- TCO
    dram = DRAMModel()
    saving = dram.savings_vs_all_dram(embedding_model.nbytes, store.dram_bytes())
    print(f"\nTCO: {100 * saving:.0f}% cheaper than keeping both tables fully in DRAM "
          f"({store.dram_bytes() / 1024:.0f} KiB DRAM cache vs "
          f"{embedding_model.nbytes / 1024:.0f} KiB all-DRAM)")


if __name__ == "__main__":
    main()
