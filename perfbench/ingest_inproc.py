"""``ingest_inproc``: the gateway and kernel alone, one caller, closed loop.

256 streams share one compiled paper-regime pool (240 rules, D=24).
Events go round-robin into ``ForecastService.ingest`` in fixed 64-event
micro-batches (each batch holds one event of 64 streams) and the
gateway returns bare point forecasts.  No network, no GA.

Operation: one event.  ``ops_per_s`` is the median over chunks of 256
calls of events per second of ``ingest`` time (a median, because the
speed of a shared machine drifts); the latency percentiles are wall
times per ``ingest`` call.  The gated figures are scaled to the nominal
host block by block (``common.BlockScaler``, every 32 calls), ``setup_s``
set-up by set-up (``Outcome.add_setup``).
"""

from __future__ import annotations

import time
from typing import List

from .common import (
    BlockScaler,
    Outcome,
    check_tail,
    median,
    peak_rss_mb,
    phase,
    quantile,
)
from .serving import (
    count_mismatches,
    serving_pool,
    stream_names,
    stream_values,
)

FULL = {"streams": 256, "batch": 64, "rounds": 4096, "warm_rounds": 32,
        "setups": 5, "checked": 8}
TINY = {"streams": 16, "batch": 8, "rounds": 64, "warm_rounds": 30,
        "setups": 2, "checked": 4}
#: Calls between two samples of the host's speed.
SPEED_EVERY = 1024
#: Calls per block of :class:`BlockScaler`.
BLOCK = 32


def checked_positions(size: dict) -> List[List[int]]:
    """Per chunk, the batch positions whose streams the oracle replays.

    ``size["checked"]`` streams spread evenly over the batch's columns,
    from the first to the last, dealt round-robin over the chunks: each
    checked stream sits at another column of the fused kernel's stack.
    """
    width, n = size["batch"], size["checked"]
    per_round = size["streams"] // width
    positions: List[List[int]] = [[] for _ in range(per_round)]
    for k in range(n):
        positions[k % per_round].append(round(k * (width - 1) / (n - 1)))
    return positions


def _setup(seed: int, size: dict):
    from repro.service import ForecastService

    pool = serving_pool(seed)
    values = stream_values(seed + 1, size["streams"], size["rounds"])
    names = stream_names(size["streams"])
    service = ForecastService()
    compiled = pool.compile()
    for name in names:
        service.bind_system(name, compiled, model="pool")
    return pool, compiled, values, names, service


def run(seed: int, seconds: float, tracer=None, tiny: bool = False) -> Outcome:
    """Measure gateway ingest for ``seconds``; see the module docstring."""
    from repro.service import ForecastService

    size = TINY if tiny else FULL
    out = Outcome()
    with phase(tracer, "setup"):
        for _ in range(size["setups"]):
            t0 = time.perf_counter()
            pool, compiled, values, names, service = _setup(seed, size)
            out.add_setup(time.perf_counter() - t0)

    width = size["batch"]
    per_round = size["streams"] // width
    chunks = [names[c * width:(c + 1) * width] for c in range(per_round)]
    rounds = values.shape[0]
    checked = checked_positions(size)

    def batch(j: int):
        r, c = divmod(j, per_round)
        return list(zip(chunks[c], values[r % rounds, c * width:(c + 1) * width]
                        .tolist()))

    ingest = service.ingest
    # Per call: how many forecasts it returned, and those of the checked
    # streams (none when the count is wrong).
    returned: List[int] = []
    kept = []

    def keep(j: int, res) -> None:
        returned.append(len(res))
        kept.append([res[p] for p in checked[j % per_round]]
                    if len(res) == width else [])

    # Warm-up: every stream's window fills and lazy buffers are allocated
    # before timing starts (its forecasts are checked like the rest).
    n_warm = size["warm_rounds"] * per_round
    for j in range(n_warm):
        keep(j, ingest(batch(j)))

    scaler = BlockScaler(BLOCK)
    clock = time.perf_counter
    j = n_warm
    with phase(tracer, "measure"):
        scaler.start()
        deadline = clock() + seconds
        while True:
            events = batch(j)
            if tracer is not None:
                tracer.batch = j
            t0 = clock()
            res = ingest(events)
            t1 = clock()
            scaler.add(t1 - t0)
            keep(j, res)
            j += 1
            if j % SPEED_EVERY == 0:
                out.sample_speed()
            if t1 >= deadline:
                break
        scaler.close()
    rss = peak_rss_mb()
    lat, scaled = scaler.raw, scaler.scaled
    n_events = len(lat) * width
    out.attempted = j * width
    if not tiny:
        check_tail(lat, out, "ingest call time")

    # -- oracle: serial ingest_one replay of every kept stream -------------
    fresh = ForecastService()
    for name in names:
        fresh.bind_system(name, pool, model="pool")
    short = sum(1 for n in returned if n != width)
    out.fail(short, f"{short} ingest calls did not return one forecast per event")
    got, want = [], []
    for k, forecasts in enumerate(kept):
        events = batch(k)
        expected = [fresh.ingest_one(*events[p]) for p in checked[k % per_round]]
        if forecasts:  # a short call is counted above
            got.extend(forecasts)
            want.extend(expected)
    wrong, _ = count_mismatches(got, want)
    out.fail(wrong, f"{wrong} of {len(want)} checked forecasts differ from a "
                    "serial ingest_one replay")

    chunk = 256 if not tiny else 16

    def rate(times: List[float]) -> float:
        return median([chunk * width / sum(times[k:k + chunk])
                       for k in range(0, len(times) - chunk + 1, chunk)]
                      or [n_events / sum(times)])

    out.set_end_to_end(rss, rate(scaled),
                       quantile(scaled, 0.5) * 1e3,
                       scale_rate=False, scale_latency=False)
    out.add("block_slowness", median(scaler.slowness), "ratio",
            len(scaler.slowness))
    out.add("peak_rss_mb", rss, "MB")
    out.add("events_per_s", rate(lat), "ev/s", max(len(lat) // chunk, 1))
    out.add("batch_p50_us", quantile(lat, 0.5) * 1e6, "us", len(lat))
    out.add("batch_p99_us", quantile(lat, 0.99) * 1e6, "us", len(lat))
    out.add("checked_forecasts", len(want), "count")
    return out
