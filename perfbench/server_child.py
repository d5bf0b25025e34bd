"""The ``ingest_tcp`` server process: a ``ForecastServer`` over one pool.

Run as ``python3 -m perfbench.server_child --pool FILE --streams N ...``
from the checkout root with ``src`` on ``PYTHONPATH``.  It loads and
compiles the pool, binds the streams, starts the server on a free
loopback port and prints one JSON line ``{"port": ..., "setup_s": ...}``.
Then it reads commands from stdin, one per line:

* ``mark`` prints a JSON snapshot: process CPU seconds, peak RSS, and
  (when tracing) the time spent in ``ForecastService.ingest`` and the
  kernel;
* ``quit`` (or end of input) stops the server, writes the spans when
  tracing, and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time


def _snapshot(tracer) -> dict:
    from perfbench.common import peak_rss_mb

    out = {"cpu_s": time.process_time(), "rss_mb": peak_rss_mb()}
    if tracer is not None:
        totals = tracer.totals()
        for name in ("gateway.ingest", "compiled.predictT"):
            entry = totals.get(name, {})
            out[name] = {"calls": entry.get("calls", 0),
                         "total_s": entry.get("total_s", 0.0),
                         "self_s": entry.get("self_s", 0.0)}
        out["events"] = tracer.counts["gateway.events"]
    return out


async def _serve(service, config, tracer, started: float) -> None:
    from repro.service import ForecastServer

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "quit")

    server = ForecastServer(service, config)
    await server.start()
    print(json.dumps({"port": server.address[1],
                      "setup_s": time.perf_counter() - started}), flush=True)
    threading.Thread(target=read_stdin, daemon=True).start()
    try:
        while True:
            command = await commands.get()
            if command == "mark":
                print(json.dumps(_snapshot(tracer)), flush=True)
            elif command == "quit":
                break
    finally:
        await server.stop()


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pool", required=True)
    parser.add_argument("--streams", type=int, required=True)
    parser.add_argument("--queue-size", type=int, required=True)
    parser.add_argument("--pending-per-conn", type=int, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    from perfbench.serving import stream_names
    from repro.io import load_rule_system
    from repro.service import ForecastService, ServerConfig

    tracer = None
    if args.spans:
        from perfbench.layers import count_windows, on_ingest
        from perfbench.spans import Tracer
        from repro.core.compiled import CompiledRuleSystem

        tracer = Tracer(counting=True)
        tracer.wrap(ForecastService, "ingest", "gateway.ingest", on_ingest)
        tracer.wrap(CompiledRuleSystem, "predict_windowsT", "compiled.predictT",
                    count_windows("compiled.predictT_windows"))
    compiled = load_rule_system(args.pool).compile()
    service = ForecastService()
    for name in stream_names(args.streams):
        service.bind_system(name, compiled, model="pool")
    config = ServerConfig(queue_size=args.queue_size,
                          max_pending_per_conn=args.pending_per_conn)
    try:
        asyncio.run(_serve(service, config, tracer, started))
    finally:
        if tracer is not None:
            from pathlib import Path

            tracer.restore()
            tracer.write(Path(args.spans))
    print(json.dumps(_snapshot(tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
