"""``ingest_adaptive``: rich scoring, guardrails and the adaptation loop.

A closed loop over 128 streams bound through a file-backed
``ModelRegistry`` to one champion trained on a slow sine.  The gateway
has a ``PolicyEngine`` (threshold, hysteresis, alert budget) and an
``AdaptationManager`` (``state_root`` in a scratch directory, injected
tick clock) attached.  The feed is stationary traffic, then every
stream shifts to a fast sine; ``poll()`` runs after each round.  Each
replay goes through drift, a checkpointed retrain through the
orchestrator, shadow scoring, promotion and probation.  Replays repeat,
each on a fresh registry, until the measuring time is used up.

Operation: one event.  ``ops_per_s`` is the median over chunks of 20
rounds of events per second of ``ingest`` + ``poll`` time; the latency
percentiles are wall times per round (one ``ingest`` of 128 events plus
its ``poll``).  Retrains run in 1 to 3 of a replay's 400 rounds, so
neither the median nor the p99 is set by them: their cost is
``adapt_s`` and the per-layer ``adaptation.poll_*`` metrics.  The gated
figures are scaled to the nominal host block by block
(``common.BlockScaler``, every 10 rounds), ``setup_s`` set-up by set-up
(``Outcome.add_setup``).
"""

from __future__ import annotations

import importlib
import time
from itertools import count
from typing import List

import numpy as np

from .common import (
    BlockScaler,
    Outcome,
    check_tail,
    median,
    peak_rss_mb,
    phase,
    quantile,
    remove_dir,
    scratch_dir,
)
from .serving import count_mismatches

FULL = {"streams": 128, "pre": 250, "post": 150, "champion_series": 1000,
        "variants": 4}
TINY = {"streams": 16, "pre": 250, "post": 150, "champion_series": 1000,
        "variants": 1}
D = 4
SHIFT = 8.0
#: Rounds per throughput sample.
CHUNK = 20
#: Rounds per block of :class:`BlockScaler`.
BLOCK = 10
POLICY = {"alert_above": 2.5, "hysteresis": 0.3, "min_matches": 1,
          "max_alerts": 5, "rate_window": 50.0}


def _slow_sine(n: int, rng, start: int = 0) -> np.ndarray:
    t = np.arange(start, start + n, dtype=np.float64)
    return np.sin(t / 6.0) * 3.0 + rng.normal(0.0, 0.05, n)


def _inputs(seed: int, size: dict):
    """The champion's training series and the ``(rounds, streams)`` feed:
    the same slow sine, then a level shift of :data:`SHIFT`."""
    rng = np.random.default_rng(seed)
    train = _slow_sine(size["champion_series"], rng)
    columns = []
    for _ in range(size["streams"]):
        start = size["champion_series"] + int(rng.integers(0, 40))
        columns.append(np.concatenate([
            _slow_sine(size["pre"], rng, start),
            _slow_sine(size["post"], rng, start + size["pre"]) + SHIFT,
        ]))
    return train, np.column_stack(columns)


def _setup(seed: int, size: dict, names: List[str], work):
    from repro.core.config import EvolutionConfig
    from repro.core.fitness import FitnessParams
    from repro.series.windowing import WindowDataset
    from repro.service import (
        AdaptationConfig,
        AdaptationManager,
        DriftConfig,
        ForecastService,
        ModelRegistry,
        PolicyEngine,
        PromotionPolicy,
    )

    multirun = importlib.import_module("repro.core.multirun").multirun
    # Retrains run through the orchestrator; load it before the first
    # event, not inside the first retrain's poll().
    importlib.import_module("repro.analysis.orchestrator")
    train, feed = _inputs(seed, size)
    # EMAX of 0.3 lets rules cover the noisy sine (noise 0.05) broadly, so
    # the champion matches nearly every stationary window.  A coverage
    # target above 1 makes it exactly two executions on every input, so
    # set-up does the same work whatever the seed.
    fitness = FitnessParams(e_max=0.3)
    ga = EvolutionConfig(d=D, horizon=1, population_size=60, generations=200,
                         fitness=fitness)
    champion = multirun(WindowDataset.from_series(train, D, 1), ga,
                        coverage_target=1.5, max_executions=2,
                        root_seed=seed).system
    registry = ModelRegistry(work / "registry")
    registry.register("tide", champion, promote=True)
    service = ForecastService(registry=registry)
    for name in names:
        service.bind(name, "tide")
    policy = PolicyEngine(POLICY)
    service.attach_policy(policy)
    # Drift is detected by coverage alone: a 128-sample baseline spans
    # three periods of the slow sine and coverage must fall to a quarter
    # of it, so stationary traffic raises no drift and the first drift
    # comes when the latest 48 values (the retrain window) are all
    # shifted.  (The error tests would fire on the first shifted window
    # and retrain on unshifted data.)  Retrains do a fixed amount of GA
    # work (no early stop, two executions); a verdict and a probation
    # each take 32 rounds of matured comparisons.
    config = AdaptationConfig(
        drift=DriftConfig(min_samples=128, coverage_drop=0.25,
                          ph_lambda=float("inf"), ratio_threshold=float("inf")),
        policy=PromotionPolicy(min_scored=32 * len(names),
                               probation_scored=32 * len(names)),
        recent_window=48,
        min_retrain_window=32,
        retrain_config=EvolutionConfig(d=D, horizon=1, population_size=60,
                                       generations=150, fitness=fitness),
        retrain_coverage_target=1.5,
        retrain_max_executions=2,
    )
    ticks = count()
    manager = AdaptationManager(service, registry, config=config,
                                state_root=work / "adapt",
                                clock=lambda: float(next(ticks)))
    return champion, feed, service, policy, manager


def _kinds(manager) -> List[str]:
    timeline = sorted(manager.events + manager.promoter.events,
                      key=lambda e: e["at"])
    return [e["kind"] for e in timeline]


def _check_replay(out: Outcome, variant: int, champion, batches, kept,
                  names: List[str], pre: int) -> None:
    """Oracles over one replay's forecasts (run outside the timed region,
    right after the replay, so no replay's outputs stay on the heap)."""
    from repro.service import ForecastService, PolicyEngine

    plain = ForecastService()
    for name in names:
        plain.bind_system(name, champion, model="tide")
    # Point fields only: the plain gateway's in-memory binding is version
    # 0 and carries no uncertainty or decision fields.
    got, want = [], []
    for events, res in zip(batches[:pre], kept):
        got.extend(f[:7] for f in res)
        want.extend(f[:7] for f in plain.ingest(events))
    wrong, missing = count_mismatches(got, want)
    out.fail(wrong, f"variant {variant}: {wrong} stationary forecasts differ "
                    "from a plain gateway")
    out.fail(missing, f"variant {variant}: {missing} forecasts missing")
    forecasts = [f for res in kept for f in res]
    replayed = PolicyEngine(POLICY).evaluate(forecasts)
    bad = sum(1 for f, d in zip(forecasts, replayed) if f.decision != d)
    out.fail(bad, f"variant {variant}: {bad} decisions differ from a serial "
                  "PolicyEngine replay")


def run(seed: int, seconds: float, tracer=None, tiny: bool = False) -> Outcome:
    """Measure adaptive serving for ``seconds``; see the module docstring."""
    size = TINY if tiny else FULL
    out = Outcome()
    names = [f"gauge-{s:02d}" for s in range(size["streams"])]
    n_variants = size["variants"]
    scaler = BlockScaler(BLOCK)
    adapt: List[float] = []
    # Replays cycle through the input variants; each variant runs at
    # least twice so its lifecycle can be compared across replays.
    kinds: List[List[List[str]]] = [[] for _ in range(n_variants)]
    clock = time.perf_counter
    deadline = clock() + seconds
    replay = 0
    while replay < 2 * n_variants or clock() < deadline:
        variant = replay % n_variants
        work = scratch_dir("adaptive-")
        try:
            with phase(tracer, "setup"):
                t0 = clock()
                champion, feed, service, policy, manager = _setup(
                    seed * 16 + variant, size, names, work)
                elapsed = clock() - t0
            out.add_setup(elapsed)
            batches = [list(zip(names, row.tolist())) for row in feed]
            kept = []
            pre_drift = 0
            shifted = promoted = None
            with phase(tracer, "measure"):
                scaler.start()
                for r, events in enumerate(batches):
                    if tracer is not None:
                        tracer.batch = r
                    t0 = clock()
                    res = service.ingest(events)
                    manager.poll()
                    t1 = clock()
                    scaler.add(t1 - t0)
                    if not kinds[variant]:
                        kept.append(res)
                    if r == size["pre"] - 1:
                        pre_drift = len(manager.monitor.events)
                    elif r == size["pre"]:
                        shifted = t0
                    if promoted is None and manager.promoter.promotions:
                        promoted = t1
                scaler.close()
            manager.save_status()
        finally:
            remove_dir(work)
        replay += 1
        out.sample_speed()
        out.attempted += len(batches) * len(names)
        if not kinds[variant]:
            _check_replay(out, variant, champion, batches, kept, names,
                          size["pre"])
        kinds[variant].append(_kinds(manager))
        if promoted is None:
            out.fail(1, f"replay {replay}: no promotion {kinds[variant][-1]}")
        else:
            adapt.append(promoted - shifted)
        out.fail(pre_drift, f"replay {replay}: {pre_drift} drift events on "
                            "stationary traffic")
        if tracer is not None:
            stats = manager.stats()
            tracer.add("policy.evaluated", policy.n_evaluated)
            tracer.add("adaptation.drift_events", stats["drift_events"])
            tracer.add("adaptation.promotions", stats["promotions"])
    rss = peak_rss_mb()
    lat, scaled = scaler.raw, scaler.scaled
    if not tiny:
        check_tail(lat, out, "round time")

    # -- oracles (outside the timed region) --------------------------------
    for variant, runs in enumerate(kinds):
        diverged = sum(1 for k in runs[1:] if k != runs[0])
        out.fail(diverged, f"variant {variant}: {diverged} replays' lifecycle "
                           f"events differ from {runs[0]}")

    def rate(times: List[float]) -> float:
        return median([CHUNK * len(names) / sum(times[k:k + CHUNK])
                       for k in range(0, len(times) - CHUNK + 1, CHUNK)])

    out.set_end_to_end(rss, rate(scaled),
                       quantile(scaled, 0.5) * 1e3,
                       scale_rate=False, scale_latency=False)
    out.add("block_slowness", median(scaler.slowness), "ratio",
            len(scaler.slowness))
    out.add("peak_rss_mb", rss, "MB")
    out.add("events_per_s", rate(lat), "ev/s", len(lat) // CHUNK)
    out.add("batch_p50_us", quantile(lat, 0.5) * 1e6, "us", len(lat))
    out.add("batch_p99_us", quantile(lat, 0.99) * 1e6, "us", len(lat))
    out.add("adapt_s", median(adapt) if adapt else float("nan"), "s", len(adapt))
    return out
