#!/usr/bin/env python3
"""Parallel patterns: multi-execution pooling and the island model.

Two ways to spend cores on the paper's method:

1. **Multi-execution pooling (§3.4)** — the paper's own outer loop,
   parallelized over a process pool (compare serial vs parallel wall
   time for the same seeds and identical results).
2. **Island model** — co-evolving populations exchanging their best
   rules along a migration topology (ring vs complete), a distributed-GA
   extension natural for the IPPS venue.

Usage::

    python examples/parallel_islands.py [--jobs 4] [--seed 5]
"""

import argparse
import time

from repro.core import mackey_config, multirun
from repro.metrics import score_table2
from repro.parallel import (
    IslandModel,
    ProcessPoolBackend,
    SerialBackend,
    complete_topology,
    ring_topology,
)
from repro.series import load_mackey_glass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--executions", type=int, default=4)
    args = parser.parse_args()

    data = load_mackey_glass()
    config = mackey_config(horizon=50, scale="bench")
    train_ds, val_ds = data.windows(config.d, config.horizon)

    # --- 1. multi-execution pooling: serial vs process pool -------------
    print(f"multi-execution pooling: {args.executions} executions")
    for label, backend in (
        ("serial", SerialBackend()),
        (f"{args.jobs} procs", ProcessPoolBackend(workers=args.jobs)),
    ):
        t0 = time.time()
        result = multirun(
            train_ds, config,
            coverage_target=1.01,            # fixed count: comparable work
            max_executions=args.executions,
            batch_size=args.executions,
            backend=backend,
            root_seed=args.seed,
        )
        elapsed = time.time() - t0
        batch = result.system.predict(val_ds.X)
        score = score_table2(val_ds.y, batch.values, batch.predicted)
        print(f"  {label:>9}: {elapsed:6.1f}s  NMSE {score.error:.4f} "
              f"@ {score.percentage:.1f}%  ({len(result.system)} rules)")
        backend.close()

    # --- 2. island model: ring vs complete topology ----------------------
    print("\nisland model: 4 islands, migration every 500 generations")
    island_config = config.replace(generations=2000)
    for label, topo in (
        ("ring", ring_topology(4)),
        ("complete", complete_topology(4)),
    ):
        t0 = time.time()
        model = IslandModel(
            train_ds, island_config, topo,
            migration_interval=500, root_seed=args.seed,
        )
        result = model.run()
        elapsed = time.time() - t0
        batch = result.system.predict(val_ds.X)
        score = score_table2(val_ds.y, batch.values, batch.predicted)
        print(f"  {label:>9}: {elapsed:6.1f}s  NMSE {score.error:.4f} "
              f"@ {score.percentage:.1f}%  migrations accepted "
              f"{result.migrations_accepted}/{result.migrations_sent}")


if __name__ == "__main__":
    main()
