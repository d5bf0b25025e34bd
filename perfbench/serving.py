"""Inputs and oracle helpers shared by the ``ingest_*`` workloads."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

D = 24
POOL_RULES = 240
PERIOD = 480


def serving_pool(seed: int):
    """A paper-regime pool: 240 box rules over D=24 sine windows.

    The recipe of ``benchmarks/bench_service.py::serving_pool``, drawn
    from ``seed``: boxes centred on random training windows, 20% of lags
    wildcarded, every other rule with a linear predicting part.
    """
    from repro.core.predictor import RuleSystem
    from repro.core.rule import Rule
    from repro.series.noise import sine_series
    from repro.series.windowing import WindowDataset

    rng = np.random.default_rng(seed)
    series = sine_series(6_000 + D + 1, period=PERIOD, noise_sigma=0.05,
                         seed=int(rng.integers(2**31)))
    X = np.ascontiguousarray(WindowDataset.from_series(series, D, 1).X)
    width = 0.07 * (X.max() - X.min())
    rules = []
    for k in range(POOL_RULES):
        center = X[int(rng.integers(0, X.shape[0]))]
        rule = Rule.from_box(center - width, center + width,
                             prediction=float(rng.normal()))
        rule.wildcard = rng.random(D) < 0.2
        rule.error = 1.0
        if k % 2 == 0:
            rule.coeffs = np.concatenate(
                [rng.normal(size=D) * 0.1, [float(rng.normal())]])
        rules.append(rule)
    return RuleSystem(rules)


def stream_values(seed: int, n_streams: int, rounds: int) -> np.ndarray:
    """``(rounds, n_streams)`` phase-shifted noisy sines, one column per stream."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, PERIOD, size=n_streams)
    t = np.arange(rounds, dtype=np.float64)[:, None] + phase[None, :]
    return np.sin(2.0 * np.pi * t / PERIOD) + rng.normal(
        0.0, 0.05, size=(rounds, n_streams))


def stream_names(n_streams: int) -> List[str]:
    """Stable stream names."""
    return [f"stream-{s:04d}" for s in range(n_streams)]


def same_forecast(a, b) -> bool:
    """Field-for-field equality of two forecasts, NaN equal to NaN."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) \
                and math.isnan(y):
            continue
        return False
    return True


def count_mismatches(got: Sequence, want: Sequence) -> Tuple[int, int]:
    """``(wrong, missing)`` between two aligned forecast sequences."""
    wrong = sum(1 for a, b in zip(got, want) if not same_forecast(a, b))
    return wrong, max(len(want) - len(got), 0)
