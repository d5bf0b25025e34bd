"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_venice --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
half the time untraced and half traced, and reports the per-layer
metrics, including the tracing overhead (the traced run's slowdown
against the untraced one).  Human-readable lines come first: the
environment, every metric by name with its unit and sample count, and
any failed check.  The last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The spans of a traced run and a record of every run (environment, seed,
all metrics) are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Each workload is the module ``perfbench.<name>``.
WORKLOADS = tuple(w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import importlib

    from perfbench.common import END_TO_END, WORK
    from perfbench.layers import PER_LAYER, instrument, layer_metrics
    from perfbench.spans import Tracer
    from repro.bench.result import env_fingerprint

    workload = importlib.import_module(f"perfbench.{args.workload}")
    env = env_fingerprint()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    if args.trace == 0:
        outcome = workload.run(args.seed, args.seconds, tiny=args.tiny)
        runs = [outcome]
        metrics = {name: (outcome.end_to_end[name], unit)
                   for name, unit in END_TO_END.items()}
    else:
        half = args.seconds / 2.0
        base = workload.run(args.seed, half, tiny=args.tiny)
        tracer = Tracer()
        instrument(tracer)
        try:
            outcome = workload.run(args.seed, half, tracer=tracer, tiny=args.tiny)
        finally:
            tracer.restore()
        runs = [base, outcome]
        speed = base.end_to_end["ops_per_s"], outcome.end_to_end["ops_per_s"]
        tracer.add("trace.overhead_pct", (speed[0] / speed[1] - 1.0) * 100.0)
        layers = layer_metrics(tracer)
        metrics = {name: (layers[name], unit)
                   for name, unit in PER_LAYER.items()}
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {spans_path.relative_to(ROOT)}")
        for name, entry in sorted(tracer.totals().items()):
            print(f"span {name} calls={entry['calls']} total_s={entry['total_s']:.6f}"
                  f" self_s={entry['self_s']:.6f}")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    for name, value, unit, n in outcome.report:
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"metric failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"(n={attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'} {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")

    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "env": env, "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "result": result,
        "report": [list(r) for r in outcome.report], "problems": problems,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
