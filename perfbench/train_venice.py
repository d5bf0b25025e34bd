"""``train_venice``: pooled Michigan-GA training, the paper's own computation.

A batch job.  Each round pools two executions of ``venice_config(
scale="bench")`` (300 generations each, coverage target above 1, so the
execution count is fixed) through ``core.multirun.multirun`` on the
serial backend, over 8000 training windows (D=24, horizon 1) of a
synthetic Venice lagoon series; the pool is then compiled and scores
the 2000 windows that follow.  Each round's series joins four
independently drawn stretches of the lagoon end to end, because the
GA's work depends on the data: on single stretches, rounds ran at
345-708 generations/s on one host, and two seeds' medians differed by
15% run after run.  Rounds cycle over eight such series until the
measuring time is used up.

Operation: one GA generation.  ``ops_per_s`` is the median over rounds
of generations per second of training (a median, because the speed of
a shared machine drifts); the latency percentiles are per-generation
step times.  The gated figures are scaled to the nominal host
(``Outcome.set_end_to_end``), ``setup_s`` set-up by set-up
(``Outcome.add_setup``).
"""

from __future__ import annotations

import importlib
import math
import time
from typing import List, Tuple

import numpy as np

from .common import Outcome, check_tail, median, peak_rss_mb, phase, quantile

FULL = {"train": 8000, "val": 2000, "generations": 300, "executions": 2,
        "stretches": 8, "pieces": 4, "oracle_windows": 1000,
        "oracle_generations": 150}
TINY = {"train": 300, "val": 100, "generations": 40, "executions": 2,
        "stretches": 2, "pieces": 2, "oracle_windows": 200,
        "oracle_generations": 30}
D = 24


def _stretch(seed: int, size: dict):
    """One training + validation series of the synthetic lagoon:
    ``size["pieces"]`` stretches of equal length joined end to end (the
    validation windows lie in the last one)."""
    from repro.series.venice import venice_series
    from repro.series.windowing import WindowDataset

    n_train = size["train"] + D
    n = n_train + size["val"] + 1
    pieces = size["pieces"]
    length = -(-n // pieces)
    series = np.concatenate([venice_series(length, seed=seed * pieces + p)
                             for p in range(pieces)])[:n]
    train = WindowDataset.from_series(series[:n_train + 1], D, 1)
    val = WindowDataset.from_series(series[n_train - D + 1:], D, 1)
    return train, val


def _rules_payload(rules) -> List[dict]:
    from repro.io.serialize import rule_to_dict

    return [rule_to_dict(r) for r in rules]


def _check_round(out: Outcome, k: int, pooled, val, scored, size: dict) -> None:
    """Oracles over one round (outside the timed region): the execution
    count, and compiled validation forecasts against the per-rule path."""
    if pooled.n_executions != size["executions"]:
        out.fail(1, f"round {k}: {pooled.n_executions} executions")
    reference = pooled.system.predict(val.X, compiled=False)
    same = (
        np.array_equal(scored.values, reference.values, equal_nan=True)
        and np.array_equal(scored.predicted, reference.predicted)
        and np.array_equal(scored.n_rules_used, reference.n_rules_used)
    )
    if not same:
        out.fail(1, f"round {k}: compiled validation forecasts differ "
                    "from the per-rule oracle")


def run(seed: int, seconds: float, tracer=None, tiny: bool = False) -> Outcome:
    """Measure pooled training for ``seconds``; see the module docstring."""
    from repro.core.config import venice_config
    from repro.core.engine import SteadyStateEngine
    from repro.series.windowing import WindowDataset

    multirun_mod = importlib.import_module("repro.core.multirun")
    size = TINY if tiny else FULL
    out = Outcome()
    config = venice_config(scale="bench").replace(
        generations=size["generations"])

    stretches = []
    with phase(tracer, "setup"):
        for k in range(size["stretches"]):
            t0 = time.perf_counter()
            stretches.append(_stretch(seed * 100 + k, size))
            out.add_setup(time.perf_counter() - t0)

    step_times: List[float] = []
    step = SteadyStateEngine.step
    clock = time.perf_counter

    def timed_step(self, generation=0):
        t0 = clock()
        accepted = step(self, generation)
        step_times.append(clock() - t0)
        return accepted

    # Per round: generations run and seconds of training.  Each round's
    # pool is checked and dropped right after it, so the peak RSS does
    # not grow with the number of rounds a run fits in.
    rounds: List[Tuple[int, float]] = []
    coverages, rmses = [], []
    measured = 0.0
    SteadyStateEngine.step = timed_step
    try:
        while measured < seconds or not rounds:
            train, val = stretches[len(rounds) % len(stretches)]
            with phase(tracer, "measure"):
                t0 = time.perf_counter()
                pooled = multirun_mod.multirun(
                    train, config, coverage_target=1.5,
                    max_executions=size["executions"],
                    root_seed=seed * 1000 + len(rounds),
                )
                train_s = time.perf_counter() - t0
                scored = pooled.system.compile().predict(val.X)
                measured += time.perf_counter() - t0
            rounds.append((len(pooled.executions) * size["generations"], train_s))
            _check_round(out, len(rounds) - 1, pooled, val, scored, size)
            hit = scored.predicted
            coverages.append(100.0 * hit.mean())
            err = scored.values[hit] - val.y[hit]
            rmses.append(math.sqrt(float(np.mean(err * err))) if hit.any() else math.nan)
            out.sample_speed()
    finally:
        SteadyStateEngine.step = step
    rss = peak_rss_mb()

    gens = sum(g for g, _ in rounds)
    rate = median([g / train_s for g, train_s in rounds])
    out.attempted = gens + len(rounds)
    if len(step_times) != gens:
        out.fail(1, f"timed {len(step_times)} generation steps, expected {gens}")
    if not tiny:
        check_tail(step_times, out, "generation step time")

    # -- oracle (outside the timed region) ---------------------------------
    out.attempted += 1
    small = WindowDataset.from_series(
        stretches[0][0].series[:size["oracle_windows"] + D + 1], D, 1)
    short = config.replace(generations=size["oracle_generations"], seed=seed)
    engine_mod = importlib.import_module("repro.core.engine")
    incremental = engine_mod.evolve(small, short)
    full = engine_mod.evolve(small, short.replace(incremental=False))
    if _rules_payload(incremental.rules) != _rules_payload(full.rules):
        out.fail(1, "incremental engine differs from the full-recompute engine")

    out.set_end_to_end(rss, rate, quantile(step_times, 0.5) * 1e3)
    out.add("peak_rss_mb", rss, "MB")
    out.add("train_gens_per_s", rate, "gen/s", len(rounds))
    out.add("gen_p50_ms", quantile(step_times, 0.5) * 1e3, "ms", len(step_times))
    out.add("gen_p99_ms", quantile(step_times, 0.99) * 1e3, "ms", len(step_times))
    out.add("val_coverage_pct", float(np.mean(coverages)), "%", len(rounds))
    out.add("val_rmse", float(np.nanmean(rmses)), "cm", len(rounds))
    return out
