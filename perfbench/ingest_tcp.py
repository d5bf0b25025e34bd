"""``ingest_tcp``: the network front-end under an open-loop schedule.

A ``ForecastServer`` runs in a child process (``server_child.py``) on the
default ``ServerConfig`` except for the queue bounds the schedule needs,
over the 240-rule pool of ``ingest_inproc`` bound to 64 streams.  The
generator (this process, one thread) multiplexes all streams over two
TCP connections, each stream pinned to one connection, and sends
``stream,value`` lines on a fixed schedule: a warm-up that fills every
stream's window, then the nominal rate, then a rate ladder that stops
at the first rung that misses the p99 limit or builds a backlog.
Latency runs from each event's due time to the reading of its reply.

The server's CPU is measured in the server process and the generator's
in this one, so neither is charged to the other.

Operation: one event.  ``ops_per_s`` is events per second of server
CPU at the nominal rate (``server_eps_per_cpu``), measured in the server
process: the cost that cutting the front-end's per-event asyncio work
would lower.  It and ``setup_s`` are scaled to the nominal host
(``Outcome.set_end_to_end``) by the reference task timed in the
generator process; the latency is not.  The ladder's
result, ``max_rate_eps`` (the rate delivered on the highest rung that met
the p99 limit with no backlog), is printed but not gated: a threshold on
a shared 2-core virtual machine swings by a quarter between runs.  The
latency percentiles are taken at the nominal rate.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from typing import Optional

from .common import (
    ROOT,
    WORK,
    Outcome,
    check_tail,
    median,
    phase,
    quantile,
    remove_dir,
    scratch_dir,
)
from .loadgen import OpenLoopClient, http_get
from .serving import serving_pool, stream_names, stream_values

FULL = {"streams": 64, "connections": 2, "warm_rate": 4000.0,
        "nominal_rate": 1000.0, "step_s": 1.0,
        "ladder": (2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 16000.0),
        "bisections": 3, "setups": 3, "rounds": 4096}
TINY = {"streams": 8, "connections": 2, "warm_rate": 1000.0,
        "nominal_rate": 500.0, "step_s": 0.3,
        "ladder": (1000.0, 2000.0), "bisections": 1, "setups": 1, "rounds": 512}
#: Share of the measuring time spent at the nominal rate.
NOMINAL_SHARE = 0.6
#: p99 latency a ladder rung must meet.
LATENCY_LIMIT_S = 0.25
#: A rung builds a backlog when the median latency of its last fifth of
#: events exceeds that of its first fifth by more than this (5% of a 1 s
#: rung: the server fell behind the rate by more than 5%).
BACKLOG_GROWTH_S = 0.05
#: The generator is behind its schedule when its p99 lateness exceeds this
#: (a tenth of the latency limit).
LATENESS_LIMIT_S = 0.025
#: Queue bounds: room for every event the schedule can have in flight.
QUEUE_SIZE = 16384
PENDING_PER_CONN = 8192


def _start_server(pool_path, n_streams: int, spans: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.server_child", "--pool", str(pool_path),
         "--streams", str(n_streams), "--queue-size", str(QUEUE_SIZE),
         "--pending-per-conn", str(PENDING_PER_CONN), "--spans", spans],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError(f"server child exited with {proc.returncode}")
    return proc, json.loads(line)["port"]


def _command(proc, command: str) -> dict:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server child gave no answer to {command!r}")
    return json.loads(line)


def _stop(proc) -> Optional[dict]:
    """Ask the child to quit; kill it if it does not.  Returns its last
    snapshot, if it printed one."""
    final = None
    try:
        final = _command(proc, "quit")
        proc.wait(timeout=30)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait(timeout=30)
    return final


def _metric(body: str, name: str) -> float:
    """A plain sample's value; 0 when the series was never written."""
    match = re.search(rf"^{re.escape(name)} (\S+)$", body, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def _histogram_p50(body: str, name: str) -> float:
    """Median of a Prometheus histogram, interpolated inside its bucket."""
    buckets = []
    for le, count in re.findall(
            rf'^{re.escape(name)}_bucket\{{le="([^"]+)"\}} (\S+)$', body, re.M):
        buckets.append((float(le), float(count)))
    if not buckets or buckets[-1][1] == 0:
        return float("nan")
    half = buckets[-1][1] / 2.0
    lo_edge, lo_count = 0.0, 0.0
    for edge, count in buckets:
        if count >= half:
            if edge == float("inf"):
                return lo_edge
            return lo_edge + (edge - lo_edge) * (half - lo_count) / (count - lo_count)
        lo_edge, lo_count = edge, count
    return float("nan")


def delivered_rate(ph) -> float:
    """Events per second from a phase's start to its last reply."""
    span = max(lat + i / ph.rate for i, lat in enumerate(ph.latency))
    return len(ph.latency) / span


def rung_verdict(ph) -> str:
    """``"pass"``, ``"fail"`` (server missed the limit or built a backlog)
    or ``"invalid"`` (the generator fell behind its own schedule)."""
    if quantile(ph.lateness, 0.99) > LATENESS_LIMIT_S:
        return "invalid"
    if ph.unsent or any(r is None or r.startswith(b'{"error"') for r in ph.replies):
        return "fail"
    if quantile(ph.latency, 0.99) > LATENCY_LIMIT_S:
        return "fail"
    fifth = max(1, len(ph.latency) // 5)
    growth = median(ph.latency[-fifth:]) - median(ph.latency[:fifth])
    if growth > BACKLOG_GROWTH_S:
        return "fail"
    return "pass"


def check_replies(phases, names, values, pool, out: Outcome, ladder_from: int) -> int:
    """Compare every reply with a serial in-process replay; return the
    number of events the server accepted (an event whose reply never
    came is taken as accepted).

    Missing replies, error replies and mismatches count as failures,
    except ``overloaded`` replies on ladder rungs (``phases[ladder_from:]``),
    where finding the overload point is the rung's purpose.
    """
    from repro.service import ForecastService
    from repro.service.server import forecast_to_dict

    service = ForecastService()
    for name in names:
        service.bind_system(name, pool, model="pool")
    n_streams, rounds = len(names), values.shape[0]
    wrong = missing = errors = accepted = 0
    for index, ph in enumerate(phases):
        for i, reply in enumerate(ph.replies):
            g = ph.first + i
            s = g % n_streams
            if reply is not None and reply.startswith(b'{"error"'):
                if not (index >= ladder_from and b'"overloaded"' in reply):
                    errors += 1
                continue  # a rejected event never reaches the gateway
            accepted += 1
            want = forecast_to_dict(service.ingest_one(
                names[s], float(values[(g // n_streams) % rounds, s])))
            if reply is None:
                missing += 1
            elif reply != json.dumps(want).encode():
                wrong += 1
    out.fail(wrong, f"{wrong} replies differ from the serial replay")
    out.fail(missing, f"{missing} replies missing")
    out.fail(errors, f"{errors} error replies")
    return accepted


def run(seed: int, seconds: float, tracer=None, tiny: bool = False) -> Outcome:
    """Run the schedule once; see the module docstring.

    The nominal phase lasts 60% of ``seconds``; the ladder takes as long
    as its climb and bisection need.
    """
    from repro.io import save_rule_system

    size = TINY if tiny else FULL
    out = Outcome()
    names = stream_names(size["streams"])
    conns = size["connections"]
    work = scratch_dir("tcp-")
    spans = str(WORK / "spans" / f"ingest_tcp-server-seed{seed}.jsonl") \
        if tracer is not None else ""
    proc = None
    try:
        with phase(tracer, "setup"):
            for k in range(size["setups"]):
                if proc is not None:
                    _stop(proc)
                t0 = time.perf_counter()
                pool = serving_pool(seed)
                save_rule_system(pool, work / "pool.json")
                proc, port = _start_server(work / "pool.json", len(names), spans)
                out.add_setup(time.perf_counter() - t0)
        values = stream_values(seed + 1, len(names), size["rounds"])

        def events(first: int, count: int):
            lines = []
            for g in range(first, first + count):
                s = g % len(names)
                value = float(values[(g // len(names)) % size["rounds"], s])
                lines.append((s % conns, f"{names[s]},{value!r}\n".encode()))
            return lines

        client = OpenLoopClient("127.0.0.1", port, conns)
        try:
            g = 0
            warm = client.run(events(0, 24 * len(names)), size["warm_rate"])
            g += len(warm.replies)
            out.sample_speed()
            with phase(tracer, "measure"):
                mark0 = _command(proc, "mark")
                n = int(size["nominal_rate"] * seconds * NOMINAL_SHARE)
                nominal = client.run(events(g, n), size["nominal_rate"], first=g)
                g += len(nominal.replies)
                mark_nominal = _command(proc, "mark")
                out.sample_speed()
                ladder = []
                verdicts = [rung_verdict(nominal)]

                def rung(rate: float) -> str:
                    nonlocal g
                    n = int(rate * size["step_s"])
                    ladder.append(client.run(events(g, n), rate, first=g))
                    g += len(ladder[-1].replies)
                    verdicts.append(rung_verdict(ladder[-1]))
                    out.sample_speed()
                    return verdicts[-1]

                # Climb until a rung fails, then bisect between the last
                # passing rate and the failing one.
                max_rate, failed_at = size["nominal_rate"], None
                best = nominal
                for rate in size["ladder"]:
                    if verdicts[-1] != "pass":
                        break
                    verdict = rung(rate)
                    if verdict == "pass":
                        max_rate, best = rate, ladder[-1]
                    elif verdict == "fail":
                        failed_at = rate
                for _ in range(size["bisections"] if failed_at else 0):
                    mid = (max_rate + failed_at) / 2.0
                    verdict = rung(mid)
                    if verdict == "invalid":
                        break
                    if verdict == "pass":
                        max_rate, best = mid, ladder[-1]
                    else:
                        failed_at = mid
                mark1 = _command(proc, "mark")
                t0 = time.perf_counter()
                status, body = http_get("127.0.0.1", port, "/metrics")
                scrape_ms = (time.perf_counter() - t0) * 1e3
        finally:
            client.close()
    finally:
        if proc is not None:
            _stop(proc)
        remove_dir(work)

    phases = [warm, nominal] + ladder
    out.attempted = sum(len(ph.replies) for ph in phases) + nominal.unsent
    out.fail(nominal.unsent, f"{nominal.unsent} events never sent at the nominal "
                             "rate: the server built a backlog")
    nominal_problem = {
        "invalid": "generator fell behind its schedule at the nominal rate; "
                   "the run is invalid",
        "fail": "the nominal rate failed its rung: p99 limit, backlog or a "
                "missing or error reply",
    }.get(verdicts[0])
    # The timing verdicts need a full run's samples; a tiny run (the
    # benchmark's own tests, on a possibly busy machine) checks only the
    # oracle and what the server dropped.
    if nominal_problem and not tiny:
        out.problems.append(nominal_problem)
    if "invalid" in verdicts[1:]:
        out.add("generator_behind_at_eps", ladder[verdicts.index("invalid") - 1].rate,
                "ev/s")
    lat = [x for x in nominal.latency if x is not None]
    if not tiny:
        check_tail(lat, out, "nominal latency")

    # -- oracles (outside the timed region) --------------------------------
    accepted = check_replies(phases, names, values, pool, out, ladder_from=2)
    if status != "HTTP/1.1 200 OK":
        out.fail(1, f"/metrics answered {status!r}")
    ingested = _metric(body, "repro_gateway_events_total")
    if ingested != accepted:
        out.fail(1, f"/metrics counts {ingested:g} events, {accepted} accepted")

    window = [nominal] + ladder
    window_events = sum(len(ph.replies) for ph in window)
    overloaded = _metric(body, "repro_server_overloaded_total")
    rss = mark1["rss_mb"]
    eps_per_cpu = len(nominal.replies) / (mark_nominal["cpu_s"] - mark0["cpu_s"])
    # The batcher's flush window, a timer, sets the nominal latency, so
    # only the server's CPU per event is scaled.
    out.set_end_to_end(rss, eps_per_cpu, quantile(lat, 0.5) * 1e3,
                       scale_latency=False)
    lateness = [x for ph in window for x in ph.lateness]
    client_cpu = sum(ph.cpu_s for ph in window)
    out.add("peak_rss_mb", rss, "MB")
    # Only a passing phase has a reply, and so a latency, for every event.
    out.add("max_rate_eps", delivered_rate(best) if verdicts[0] == "pass"
            else float("nan"), "ev/s", len(verdicts))
    out.add("latency_p50_ms", quantile(lat, 0.5) * 1e3, "ms", len(lat))
    out.add("latency_p99_ms", quantile(lat, 0.99) * 1e3, "ms", len(lat))
    out.add("server_eps_per_cpu", eps_per_cpu, "ev/s",
            len(nominal.replies))
    out.add("nominal_eps", size["nominal_rate"], "ev/s", len(nominal.replies))
    out.add("generator_lateness_p99_ms", quantile(lateness, 0.99) * 1e3, "ms",
            len(lateness))
    out.add("generator_cpu_us_per_event", client_cpu / window_events * 1e6, "us",
            window_events)
    out.add("server_cpu_us_per_event",
            (mark1["cpu_s"] - mark0["cpu_s"]) / window_events * 1e6, "us",
            window_events)
    out.add("overloaded_replies", overloaded, "count")
    print("ladder " + " ".join(
        f"{ph.rate:g}:{verdict}:p99={quantile(ph.latency, 0.99) * 1e3:.1f}ms"
        f":late99={quantile(ph.lateness, 0.99) * 1e3:.1f}ms"
        if all(x is not None for x in ph.latency) else f"{ph.rate:g}:{verdict}"
        for ph, verdict in zip([nominal] + ladder, verdicts)))

    if tracer is not None:
        add = tracer.add
        cpu_us = (mark1["cpu_s"] - mark0["cpu_s"]) / window_events * 1e6
        ingest = {k: mark1["gateway.ingest"][k] - mark0["gateway.ingest"][k]
                  for k in ("calls", "total_s", "self_s")}
        kernel_self = (mark1["compiled.predictT"]["self_s"]
                       - mark0["compiled.predictT"]["self_s"])
        events_in = mark1["events"] - mark0["events"]
        add("server.cpu_us_per_event", cpu_us)
        add("server.ingest_us_per_event", ingest["total_s"] / events_in * 1e6)
        add("server.self_cpu_us_per_event",
            cpu_us - ingest["total_s"] / events_in * 1e6)
        add("server.overloaded", overloaded)
        add("batcher.events_per_flush", events_in / ingest["calls"])
        add("batcher.flushes", ingest["calls"])
        add("batcher.queue_p50_ms",
            _histogram_p50(body, "repro_server_ingest_latency_seconds") * 1e3)
        add("metrics.scrape_ms", scrape_ms)
        add("client.cpu_us_per_event", client_cpu / window_events * 1e6)
        add("client.send_lag_p99_ms", quantile(lateness, 0.99) * 1e3)
        add("self_s.gateway", ingest["self_s"])
        add("self_s.compiled", kernel_self)
    return out
