"""Print where a built store's ``sim_bw_gain`` goes: its loss chain.

Each cell is the store of ``benchmarks/perf``'s ``offline-pipeline``
workload, built from that workload's own inputs and config
(``perfbench.workloads.OfflinePipeline``: Table 1's tables 1, 2, 6 and 7, SHP
with 16 iterations, miniature caches at sampling 0.1, training 3× and
evaluation ``--eval-x`` × the paper-shaped lookups), with only the table scale
and the DRAM budget varied, the budget as a share of the tables' vectors.
``--stale`` builds ``drift-repartition``'s stale-arm store instead (its
``DriftRepartition`` trace and config: untuned t = 2, cache 1/8).  Each row is
:func:`benchmarks.common.loss_chain`'s factors, their product, the measured
gain and whether the store's split lies on the allocator's chunk grid (where
the factors fall in order).  The script exits non-zero when, on some table,
the chain's own replay at the store's split and thresholds does not read what
the store read.  From the repository root::

    PYTHONPATH=src:. python benchmarks/loss_chain.py --scale 8000 --eval-x 4 --seeds 1 2 --dram 5
    PYTHONPATH=src:. python benchmarks/loss_chain.py --stale --seeds 1 2 3
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import List, Tuple

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf"))

from perfbench.workloads import FULL, DriftRepartition, OfflinePipeline  # noqa: E402

from benchmarks.common import loss_chain  # noqa: E402
from repro.core.bandana import BandanaStore  # noqa: E402
from repro.simulation import simulate_store  # noqa: E402
from repro.workloads.trace import ModelTrace  # noqa: E402


def offline_cell(
    scale: int, eval_x: float, seed: int, dram: float
) -> Tuple[BandanaStore, ModelTrace, ModelTrace]:
    """``offline-pipeline``'s store at ``dram`` % of the vectors, and its traces."""
    workload = OfflinePipeline(seed, replace(FULL, table_scale=1.0 / scale, offline_eval_x=eval_x))
    ctx: dict = {}
    for _, step in workload.setup_steps():
        ctx = step(ctx)
    specs = ctx["specs"]
    total_vectors = sum(spec.num_vectors for spec in specs.values())
    budget = max(len(specs), int(total_vectors * dram / 100))
    config = replace(workload._store_config(specs), total_cache_vectors=budget)
    num_vectors = {name: spec.num_vectors for name, spec in specs.items()}
    train = ModelTrace(ctx["train"])
    store = BandanaStore.build(train, config, num_vectors=num_vectors)
    return store, train, ctx["eval_trace"]


def stale_cell(seed: int) -> Tuple[BandanaStore, ModelTrace, ModelTrace]:
    """``drift-repartition``'s stale arm: the store its runner starts from."""
    workload = DriftRepartition(seed, FULL)
    train, evaluation = workload._generate().split(workload.train_fraction)
    train_trace = ModelTrace({workload.table: train})
    store = BandanaStore.build(train_trace, workload._store_config())
    return store, train_trace, ModelTrace({workload.table: evaluation})


def chain_row(
    label: str, store: BandanaStore, train: ModelTrace, evaluation: ModelTrace
) -> bool:
    """Print one cell's chain; return whether its replay reads what the store read."""
    chain = loss_chain(store, train, evaluation)
    gain = 1.0 + simulate_store(store, evaluation).bandwidth_increase
    product = math.prod(chain.factors.values())
    factors = "  ".join(f"{name} {value:.3f}" for name, value in chain.factors.items())
    grid = "on" if chain.on_grid else "off"
    print(f"{label}  {factors}  product {product:.4f}  sim_bw_gain {gain:.4f}  grid {grid}")
    return chain.replayed == chain.measured


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=1000, help="tables at 1/SCALE")
    parser.add_argument("--eval-x", type=float, default=8.0, help="evaluation lookups multiple")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument(
        "--dram", type=float, nargs="+", default=[10.0], help="DRAM %% of the vectors"
    )
    parser.add_argument("--stale", action="store_true", help="drift-repartition's stale arm")
    args = parser.parse_args(argv)
    off: List[str] = []
    for seed in args.seeds:
        if args.stale:
            label = f"stale seed {seed}"
            if not chain_row(label, *stale_cell(seed)):
                off.append(label)
            continue
        for dram in args.dram:
            label = f"1/{args.scale} seed {seed} DRAM {dram:g} %"
            if not chain_row(label, *offline_cell(args.scale, args.eval_x, seed, dram)):
                off.append(label)
    if off:
        print(f"the chain's replay does not read what the store read: {off}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
