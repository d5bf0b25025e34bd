"""Asyncio network front-end: adaptive micro-batching over the gateway.

:class:`~repro.service.gateway.ForecastService` is in-process only —
``repro serve`` reads stdin on one thread.  :class:`ForecastServer`
puts a real front door on it (ROADMAP: "an asyncio TCP/HTTP ingest
loop that accepts thousands of concurrent stream connections"):

* **one port, two protocols** — a newline-delimited TCP ingest
  protocol (JSON ``{"stream": s, "value": v}`` or plaintext
  ``stream,value`` per line, one JSON response line per event) and a
  minimal HTTP/1.1 surface (``POST /ingest``, ``GET /metrics``,
  ``GET /healthz``), sniffed from the first request line;
* **adaptive micro-batching** — every connection funnels events into
  one bounded :class:`asyncio.Queue`; :class:`AdaptiveBatcher` drains
  it into a single :meth:`ForecastService.ingest` call per flush,
  triggered by batch size OR a time window that is continuously
  re-tuned from the observed arrival rate (the window tracks the time
  one full batch takes to arrive, clamped to a configured range — so
  idle streams see bounded latency and busy streams see full batches);
* **backpressure, never unbounded memory** — a full event queue
  answers ``{"error": "overloaded"}`` (HTTP 429) instead of queueing,
  per-connection response queues are bounded (a client that stops
  reading stops being read from), and a reader that ignores its
  responses past the write-buffer drain timeout is disconnected;
* **observability** — ``/metrics`` renders the
  :class:`~repro.service.metrics.MetricsRegistry` (event/error/batch
  counters, queue depth, the live adaptive window, and per-stream +
  global ingest-latency histograms) in Prometheus text format;
  ``/healthz`` returns the gateway's JSON snapshot.

**The bitwise contract survives the network.**  The batcher is a
single consumer of a single FIFO queue and events from one connection
are enqueued in read order, so each stream's events reach
``ForecastService.ingest`` in the order its client wrote them; the
gateway's partition-independence property then guarantees forecasts
bitwise identical to a serial ``ingest_one`` replay — for any
connection count, batch size and window setting
(``tests/property/test_server_batching.py``).

Fault containment: a malformed line, unknown stream or non-finite
value is rejected **per event** with a structured error (the event is
validated before it is allowed near the queue, so one client's
garbage can never poison a batch carrying other clients' events), and
a client disconnect mid-batch only cancels the delivery of its own
responses — the scoring itself, and every other connection, proceed
(``tests/integration/test_server_faults.py``).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .gateway import Forecast, ForecastService
from .metrics import MetricsRegistry

__all__ = [
    "AdaptiveBatcher",
    "ForecastServer",
    "OverloadedError",
    "ProtocolError",
    "ServerConfig",
    "forecast_to_dict",
    "parse_event_line",
]


class ProtocolError(ValueError):
    """A malformed wire event (bad JSON, missing fields, bad value)."""


class OverloadedError(RuntimeError):
    """The global event queue is full; the caller must shed or retry."""


def forecast_to_dict(forecast: Forecast) -> Dict[str, object]:
    """A :class:`Forecast` as the wire-format JSON object.

    ``value`` is ``null`` while the window is filling or the model
    abstains — ``NaN`` is not valid JSON, and "no forecast" is a
    first-class outcome, not a float.  With a policy attached the
    envelope additionally carries the uncertainty fields
    (``confidence``/``dispersion``/``interval``, interval ``null``
    when there is no forecast) and the policy ``decision``.
    """
    out = {
        "stream": forecast.stream,
        "t": forecast.t,
        "value": None if math.isnan(forecast.value) else forecast.value,
        "predicted": forecast.predicted,
        "n_rules_used": forecast.n_rules_used,
        "ready": forecast.ready,
        "model": forecast.model,
        "version": forecast.version,
    }
    if forecast.confidence is not None:
        out["confidence"] = forecast.confidence
        out["dispersion"] = forecast.dispersion
        out["interval"] = (
            None
            if math.isnan(forecast.interval_lo)
            else [forecast.interval_lo, forecast.interval_hi]
        )
    if forecast.decision is not None:
        out["decision"] = forecast.decision.to_dict()
    return out


def parse_event_line(line: str) -> Tuple[str, float]:
    """Decode one ingest line into ``(stream, value)``.

    Two forms are accepted: a JSON object ``{"stream": s, "value": v}``
    and CSV plaintext ``stream,value`` (the ``repro serve`` stdin
    format).  Raises :class:`ProtocolError` with a human-readable
    reason on anything else — including non-finite values, which the
    gateway would reject batch-atomically; the server rejects them per
    event instead so one client's sensor gap cannot touch another's
    batch.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("empty line")
    if line.startswith("{"):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad JSON: {exc.msg}") from None
        if not isinstance(obj, dict) or "stream" not in obj or "value" not in obj:
            raise ProtocolError(
                'JSON event must be {"stream": s, "value": v}'
            )
        stream, raw = obj["stream"], obj["value"]
        if not isinstance(stream, str) or not stream:
            raise ProtocolError("stream must be a non-empty string")
    else:
        stream, sep, raw = line.rpartition(",")
        if not sep or not stream:
            raise ProtocolError(
                "expected 'stream,value' or a JSON event object"
            )
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad value {raw!r}") from None
    if not math.isfinite(value):
        raise ProtocolError(
            f"non-finite value {raw!r}; fill or drop sensor gaps upstream"
        )
    return stream, value


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the network front-end (all have serving defaults).

    Attributes
    ----------
    host, port:
        Listen address; port 0 picks a free port (tests, benchmarks).
    max_batch:
        Flush the micro-batch at this many events regardless of the
        window (also the largest single ``ingest`` call the batcher
        will make).
    min_window_s, max_window_s:
        Clamp range of the adaptive flush window.  The batcher aims
        the window at the time one full batch takes to arrive at the
        observed rate; the clamp bounds worst-case added latency
        (``max_window_s``) and busy-loop flushing (``min_window_s``).
    queue_size:
        Global bound on queued-but-unscored events; a full queue sheds
        load with :class:`OverloadedError` instead of growing.
    max_pending_per_conn:
        Bound on responses queued towards one connection; a client
        that stops reading stops being read from once it is reached.
    max_line_bytes:
        Longest accepted ingest line; longer lines get a structured
        error and the connection is closed (the remainder of an
        oversized line cannot be re-synchronized reliably).
    max_body_bytes:
        Largest accepted HTTP request body.
    drain_timeout_s:
        How long a response write may wait on a slow reader's socket
        buffer before the connection is dropped.
    write_buffer_bytes:
        Transport write-buffer high-water mark per connection.  Above
        it, response writes block in ``drain()`` (and start the
        ``drain_timeout_s`` clock) instead of buffering a slow
        reader's backlog in server memory.
    metrics_top_k:
        Cardinality cap on per-stream series in ``/metrics``: only the
        ``metrics_top_k`` busiest streams (by ingested events) get
        their own labelled series; the rest merge into one
        ``stream="other"`` aggregate.  A gateway hosting 10k+ streams
        then scrapes in O(top_k), not O(streams).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    min_window_s: float = 0.0005
    max_window_s: float = 0.05
    queue_size: int = 4096
    max_pending_per_conn: int = 256
    max_line_bytes: int = 64 * 1024
    max_body_bytes: int = 1024 * 1024
    drain_timeout_s: float = 5.0
    write_buffer_bytes: int = 64 * 1024
    metrics_top_k: int = 20

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0 < self.min_window_s <= self.max_window_s:
            raise ValueError("need 0 < min_window_s <= max_window_s")
        if self.queue_size < 1 or self.max_pending_per_conn < 1:
            raise ValueError("queue bounds must be >= 1")
        if self.write_buffer_bytes < 0:
            raise ValueError("write_buffer_bytes must be >= 0")
        if self.metrics_top_k < 1:
            raise ValueError("metrics_top_k must be >= 1")


class AdaptiveBatcher:
    """Funnels events from all connections into adaptive micro-batches.

    One bounded :class:`asyncio.Queue`, one consumer task: the batcher
    takes the first queued event, then keeps accumulating until either
    ``max_batch`` events are in hand or the adaptive window has
    elapsed, and scores the whole batch with a single
    :meth:`ForecastService.ingest` call.  Being the queue's only
    consumer makes the global event order a strict FIFO — the
    bitwise-parity property of the gateway extends across the network
    boundary for free.

    **Window adaptation.**  After every flush the arrival rate is
    re-estimated with an EWMA over the flush's own throughput, and the
    next window becomes ``max_batch / rate`` clamped to the configured
    ``[min_window_s, max_window_s]`` range: when events arrive faster
    than the batch fills, the window shrinks toward the clamp floor
    (flushes are size-triggered anyway); when traffic is sparse, the
    window stops growing at the ceiling so a lone event is never held
    longer than ``max_window_s``.
    """

    _EWMA = 0.2  #: smoothing of the arrival-rate estimate per flush

    def __init__(
        self,
        service: ForecastService,
        config: ServerConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.config = config
        self.window_s = config.max_window_s
        self._rate: Optional[float] = None
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_size)
        self._task: Optional[asyncio.Task] = None
        self._paused = asyncio.Event()
        self._paused.set()  # set == running
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_batches = metrics.counter(
            "repro_server_batches_total", "Micro-batches scored."
        )
        self._c_events = metrics.counter(
            "repro_server_batched_events_total",
            "Events scored through the micro-batcher.",
        )
        self._c_failures = metrics.counter(
            "repro_server_batch_failures_total",
            "Batches rejected by the gateway (internal errors).",
        )
        self._g_window = metrics.gauge(
            "repro_server_batch_window_seconds",
            "Current adaptive flush window.",
        )
        self._g_depth = metrics.gauge(
            "repro_server_queue_depth", "Events queued, not yet scored."
        )
        self._g_window.set(self.window_s)
        self._h_latency = metrics.histogram(
            "repro_server_ingest_latency_seconds",
            "Enqueue-to-forecast latency, all streams.",
        )
        self._h_stream_latency = metrics.histogram(
            "repro_server_stream_ingest_latency_seconds",
            "Enqueue-to-forecast latency per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
            top_k=config.metrics_top_k,
        )

    # -- producer side -------------------------------------------------------

    def submit(self, stream: str, value: float) -> "asyncio.Future[Forecast]":
        """Enqueue one **validated** event; resolve to its forecast.

        Raises :class:`OverloadedError` when the global queue is full
        (the caller translates that into ``429`` / an ``overloaded``
        error line) and ``ValueError`` for an unknown stream — both
        before anything is queued, so rejected events leave no trace.
        """
        self.service._stream(stream)  # unknown stream -> ValueError, unqueued
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(
                (stream, value, future, time.perf_counter())
            )
        except asyncio.QueueFull:
            raise OverloadedError(
                f"event queue full ({self.config.queue_size} pending)"
            ) from None
        self._g_depth.set(self._queue.qsize())
        return future

    def submit_many(
        self, events: List[Tuple[str, float]]
    ) -> "List[asyncio.Future[Forecast]]":
        """Enqueue a pre-validated batch all-or-nothing.

        Either every event is queued (preserving list order) or none
        is — partial acceptance would silently reorder a stream's
        events relative to the caller's retry.
        """
        for stream, _ in events:
            self.service._stream(stream)
        if self._queue.maxsize - self._queue.qsize() < len(events):
            raise OverloadedError(
                f"event queue cannot take {len(events)} more events"
            )
        loop = asyncio.get_running_loop()
        futures = []
        now = time.perf_counter()
        for stream, value in events:
            future = loop.create_future()
            self._queue.put_nowait((stream, value, future, now))
            futures.append(future)
        self._g_depth.set(self._queue.qsize())
        return futures

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the consumer task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-batcher"
            )

    async def stop(self) -> None:
        """Flush whatever is queued, then stop the consumer task."""
        await self.drain()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def drain(self) -> None:
        """Wait until every queued event has been scored."""
        await self._queue.join()

    def pause(self) -> None:
        """Hold the consumer before its next batch (ops/testing hook).

        Queued events stay queued — combined with the bounded queue
        this is also how overload is exercised deterministically in
        the torture suite.
        """
        self._paused.clear()

    def resume(self) -> None:
        """Release a :meth:`pause`."""
        self._paused.set()

    # -- consumer side -------------------------------------------------------

    async def _run(self) -> None:
        while True:
            await self._paused.wait()
            first = await self._queue.get()
            batch = [first]
            deadline = time.perf_counter() + self.window_s
            while len(batch) < self.config.max_batch:
                timeout = deadline - time.perf_counter()
                if timeout <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout)
                    )
                except asyncio.TimeoutError:
                    break
            self._flush(batch)
            for _ in batch:
                self._queue.task_done()
            self._g_depth.set(self._queue.qsize())

    def _flush(self, batch: List[tuple]) -> None:
        """Score one batch and resolve its futures (never raises)."""
        try:
            forecasts = self.service.ingest(
                [(stream, value) for stream, value, _, _ in batch]
            )
        except Exception as exc:  # events were pre-validated: defensive
            self._c_failures.inc()
            for _, _, future, _ in batch:
                if not future.cancelled():
                    future.set_exception(
                        ProtocolError(f"batch rejected: {exc}")
                    )
            return
        now = time.perf_counter()
        for (stream, _, future, t0), forecast in zip(batch, forecasts):
            elapsed = now - t0
            self._h_latency.observe(elapsed)
            self._h_stream_latency.observe(elapsed, stream=stream)
            if not future.cancelled():
                future.set_result(forecast)
        self._c_batches.inc()
        self._c_events.inc(len(batch))
        self._retune(len(batch), now)

    def _retune(self, batch_len: int, now: float) -> None:
        """EWMA the arrival rate; aim the window at one full batch."""
        if not hasattr(self, "_last_flush"):
            self._last_flush = now
            return
        elapsed = now - self._last_flush
        self._last_flush = now
        if elapsed <= 0:
            return
        instant = batch_len / elapsed
        self._rate = (
            instant
            if self._rate is None
            else (1 - self._EWMA) * self._rate + self._EWMA * instant
        )
        self.window_s = min(
            max(
                self.config.max_batch / max(self._rate, 1e-9),
                self.config.min_window_s,
            ),
            self.config.max_window_s,
        )
        self._g_window.set(self.window_s)


def _swallow_result(future: "asyncio.Future") -> None:
    """Retrieve a discarded response future so it never warns."""
    if not future.cancelled():
        future.exception()


#: Sentinel queued towards a connection writer for an immediate error.
_ErrorReply = Dict[str, object]


class ForecastServer:
    """The asyncio TCP + HTTP front door of a :class:`ForecastService`.

    Usage (all coroutines run on one event loop)::

        service = ForecastService(registry)
        service.bind("gauge", "venice-h1")
        server = ForecastServer(service, ServerConfig(port=7071))
        await server.start()
        ...
        await server.stop()

    ``repro serve --listen HOST:PORT`` wraps exactly this.  The wire
    protocol and the metrics contract are documented in
    ``docs/serving.md``.
    """

    def __init__(
        self,
        service: ForecastService,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self.metrics = MetricsRegistry()
        self.batcher = AdaptiveBatcher(service, self.config, self.metrics)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._c_connections = self.metrics.counter(
            "repro_server_connections_total", "Connections accepted."
        )
        self._g_active = self.metrics.gauge(
            "repro_server_connections_active", "Connections currently open."
        )
        self._c_errors = self.metrics.counter(
            "repro_server_errors_total",
            "Rejected events and requests, by reason.",
            ["reason"],
        )
        self._c_overloaded = self.metrics.counter(
            "repro_server_overloaded_total",
            "Events shed because the queue was full.",
        )
        self._c_disconnects = self.metrics.counter(
            "repro_server_client_disconnects_total",
            "Connections that vanished or were dropped, by cause.",
            ["cause"],
        )
        self._c_http = self.metrics.counter(
            "repro_server_http_requests_total",
            "HTTP requests served, by path and status.",
            ["path", "status"],
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listen socket and start the batcher."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )

    async def stop(self) -> None:
        """Stop accepting, drop live connections, flush the batcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.batcher.stop()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "ForecastServer":
        """``async with ForecastServer(...)`` starts the server."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Close the listener and every connection on context exit."""
        await self.stop()

    # -- metrics -------------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``/metrics`` payload: refresh mirrors, render the registry.

        Gateway, adaptation and policy state is mirrored at render time
        — scrape-time reads of authoritative state instead of double
        bookkeeping on the hot path.  Running totals (every
        ``*_total`` family) become counters that never decrease
        (:meth:`~repro.service.metrics.Counter.set_total`); levels such
        as streams and coverage stay gauges.  Per-stream series are
        capped at the config's ``metrics_top_k`` busiest streams (by
        ingested events); the rest collapse into one
        ``stream="other"`` aggregate so the scrape stays bounded no
        matter how many streams are bound.
        """
        stats = self.service.stats()
        g = self.metrics.gauge
        c = self.metrics.counter
        c("repro_gateway_events_total", "Events the gateway ingested.").set_total(
            stats["events"]
        )
        c(
            "repro_gateway_micro_batches_total",
            "ingest() calls the gateway scored.",
        ).set_total(stats["micro_batches"])
        g("repro_gateway_streams", "Streams currently bound.").set(
            stats["streams"]
        )
        g("repro_gateway_coverage", "Aggregate prediction coverage.").set(
            stats["coverage"]
        )
        c(
            "repro_gateway_evicted_streams_total",
            "Streams evicted by the store's TTL/LRU policy.",
        ).set_total(stats["evicted_streams"])
        adapt = stats.get("adaptation")
        if adapt:
            for key, help_text in (
                ("drift_events", "Drift events the monitor has fired."),
                ("retrains", "Challenger retrains completed."),
                ("promotions", "Challengers promoted to champion."),
                ("rollbacks", "Promotions rolled back from probation."),
            ):
                c(f"repro_adaptation_{key}_total", help_text).set_total(
                    adapt.get(key, 0)
                )
            shadow_err = g(
                "repro_adaptation_shadow_error",
                "Mean absolute shadow-comparison error per model, by role "
                "(champion vs challenger, persistence-fallback charged).",
                ["model", "role"],
            )
            # Rebuilt each scrape: a resolved challenge must not keep
            # its stale series.
            shadow_err.clear()
            for model, s in sorted(adapt.get("shadow", {}).items()):
                shadow_err.set(
                    s.get("champion_error", 0.0), model=model, role="champion"
                )
                shadow_err.set(
                    s.get("challenger_error", 0.0),
                    model=model,
                    role="challenger",
                )
        policy = stats.get("policy")
        if policy:
            for key, help_text in (
                ("evaluated", "Forecasts the policy engine evaluated."),
                ("passes", "Forecasts served untouched (plain pass)."),
                ("alerts", "Alert decisions emitted."),
                ("suppressions", "Forecasts suppressed by guardrails "
                                 "or rate limits."),
                ("abstentions", "Abstain decisions (not ready, no or "
                                "too few matching rules)."),
            ):
                c(f"repro_policy_{key}_total", help_text).set_total(
                    policy.get(key, 0)
                )
            reasons = c(
                "repro_policy_reasons_total",
                "Decision reason codes emitted, by code.",
                ["reason"],
            )
            for code, count in sorted(policy.get("reasons", {}).items()):
                reasons.set_total(count, reason=code)
        per_stream = g(
            "repro_gateway_stream_coverage",
            "Prediction coverage per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
        )
        predicted = g(
            "repro_gateway_stream_predicted_steps",
            "Predicted steps per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
        )
        per = stats["per_stream"]
        ranked = sorted(per, key=lambda n: (-per[n]["events"], n))
        head = ranked[: self.config.metrics_top_k]
        tail = ranked[self.config.metrics_top_k:]
        # Rebuilt from scratch each scrape: a stream that drops out of
        # the top-K (or is evicted) must not keep its stale series.
        per_stream.clear()
        predicted.clear()
        for name in head:
            per_stream.set(per[name]["coverage"], stream=name)
            predicted.set(per[name]["predicted_steps"], stream=name)
        if tail:
            ready = sum(per[n]["ready_steps"] for n in tail)
            done = sum(per[n]["predicted_steps"] for n in tail)
            per_stream.set(done / ready if ready else 0.0, stream="other")
            predicted.set(done, stream="other")
        return self.metrics.render()

    def healthz(self) -> Dict[str, object]:
        """The ``/healthz`` payload: gateway snapshot + server counters."""
        out = self.service.healthz()
        out["server"] = {
            "connections_active": self._g_active.value(),
            "queue_depth": self.batcher._queue.qsize(),
            "batch_window_s": self.batcher.window_s,
            "overloaded_total": self._c_overloaded.value(),
        }
        return out

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        self._g_active.inc()
        writer.transport.set_write_buffer_limits(
            high=self.config.write_buffer_bytes
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Pin the kernel send buffer too: auto-tuning would let a
            # slow reader's backlog grow for minutes before the
            # transport's high-water mark (and the drain_timeout_s
            # clock) ever engaged.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_SNDBUF,
                max(self.config.write_buffer_bytes, 2048),
            )
        try:
            try:
                first = await reader.readline()
            except (ValueError, ConnectionError):
                await self._reply_line_error(
                    writer, "line too long", line_no=1, close=True
                )
                return
            if not first:
                return
            head = first.split(b" ", 1)[0]
            if head in (b"GET", b"POST", b"HEAD", b"PUT", b"DELETE"):
                await self._serve_http(reader, writer, first)
            else:
                await self._serve_lines(reader, writer, first)
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            self._c_disconnects.inc(cause="reset")
        except (EOFError, ValueError):
            # Truncated HTTP body / oversized header line: the request
            # is unrecoverable but the server loop must not be.
            self._c_disconnects.inc(cause="protocol-error")
        finally:
            self._g_active.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- the line protocol ---------------------------------------------------

    async def _serve_lines(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes,
    ) -> None:
        """NDJSON / plaintext ingest: one response line per event line.

        Responses are written by a dedicated per-connection task fed
        from a bounded queue, so scoring (batcher) and socket writes
        overlap while responses keep the exact request order.
        """
        out_q: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.max_pending_per_conn
        )
        writer_task = asyncio.get_running_loop().create_task(
            self._write_responses(writer, out_q)
        )
        line_no = 0
        line: Optional[bytes] = first
        try:
            while line:
                line_no += 1
                text = line.decode("utf-8", errors="replace").strip()
                if text and not text.startswith("#"):
                    reply = self._submit_line(text, line_no)
                    await out_q.put(reply)  # bounded: slow client blocks here
                try:
                    line = await reader.readline()
                except ValueError:
                    await out_q.put(self._line_error(
                        "line too long", line_no + 1, reason="oversized"
                    ))
                    break
                except ConnectionError:
                    self._c_disconnects.inc(cause="reset")
                    break
        finally:
            await out_q.put(None)  # sentinel: flush and finish
            try:
                await writer_task
            except asyncio.CancelledError:
                pass

    def _submit_line(
        self, text: str, line_no: int
    ) -> "Union[asyncio.Future, _ErrorReply]":
        """Parse + enqueue one event line; error dict when rejected."""
        try:
            stream, value = parse_event_line(text)
        except ProtocolError as exc:
            return self._line_error(str(exc), line_no, reason="malformed")
        try:
            return self.batcher.submit(stream, value)
        except OverloadedError:
            self._c_overloaded.inc()
            return {"error": "overloaded", "line": line_no}
        except ValueError as exc:  # unknown stream
            return self._line_error(str(exc), line_no, reason="unknown-stream")

    def _line_error(
        self, message: str, line_no: int, reason: str
    ) -> _ErrorReply:
        self._c_errors.inc(reason=reason)
        return {"error": message, "line": line_no}

    async def _write_responses(
        self, writer: asyncio.StreamWriter, out_q: asyncio.Queue
    ) -> None:
        """Drain the response queue in order; drop slow readers.

        After the connection dies (slow reader aborted, peer reset)
        the loop keeps consuming — discarding — until the reader's
        ``None`` sentinel, so the reader side is never left blocked on
        a full queue nobody drains.
        """
        dead = False
        while True:
            item = await out_q.get()
            if item is None:
                return
            if dead:
                # Don't serialize on resolution either: the reader may
                # still be flushing thousands of buffered lines.
                if isinstance(item, asyncio.Future):
                    item.add_done_callback(_swallow_result)
                continue
            if isinstance(item, asyncio.Future):
                try:
                    payload = forecast_to_dict(await item)
                except ProtocolError as exc:
                    payload = {"error": str(exc)}
                except asyncio.CancelledError:
                    raise
            else:
                payload = item
            writer.write(json.dumps(payload).encode() + b"\n")
            try:
                await asyncio.wait_for(
                    writer.drain(), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                self._c_disconnects.inc(cause="slow-reader")
                writer.transport.abort()
                dead = True
            except ConnectionError:
                self._c_disconnects.inc(cause="reset")
                dead = True

    # -- the HTTP protocol ---------------------------------------------------

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        """One minimal HTTP/1.1 exchange (``Connection: close``)."""
        try:
            method, path, _ = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._http_reply(writer, "?", 400, {"error": "bad request"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.config.max_body_bytes:
            await self._http_reply(
                writer, path, 413, {"error": "body too large"}
            )
            return
        body = await reader.readexactly(length) if length else b""

        if method == "GET" and path == "/metrics":
            await self._http_reply(
                writer, path, 200, self.render_metrics(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "GET" and path == "/healthz":
            await self._http_reply(writer, path, 200, self.healthz())
        elif method == "POST" and path == "/ingest":
            status, payload = await self._http_ingest(body)
            await self._http_reply(writer, path, status, payload)
        else:
            await self._http_reply(
                writer, path, 404,
                {"error": f"no route {method} {path}"},
            )

    async def _http_ingest(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /ingest``: one event object or ``{"events": [...]}``.

        The batch form is all-or-nothing: it either queues entirely
        (results in input order) or returns ``429``/``400`` having
        queued nothing, mirroring the gateway's atomic-batch contract.
        """
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._c_errors.inc(reason="malformed")
            return 400, {"error": f"bad JSON body: {exc}"}
        try:
            if isinstance(obj, dict) and "events" in obj:
                events = [
                    parse_event_line(json.dumps(e) if isinstance(e, dict)
                                     else f"{e[0]},{e[1]}")
                    for e in obj["events"]
                ]
            else:
                events = [parse_event_line(json.dumps(obj))]
        except (ProtocolError, TypeError, IndexError) as exc:
            self._c_errors.inc(reason="malformed")
            return 400, {"error": f"bad event: {exc}"}
        try:
            futures = self.batcher.submit_many(events)
        except OverloadedError as exc:
            self._c_overloaded.inc()
            return 429, {"error": "overloaded", "detail": str(exc)}
        except ValueError as exc:
            self._c_errors.inc(reason="unknown-stream")
            return 400, {"error": str(exc)}
        results = [
            forecast_to_dict(f) for f in await asyncio.gather(*futures)
        ]
        return 200, {"results": results}

    async def _http_reply(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        status: int,
        payload: Union[Dict[str, object], str],
        content_type: str = "application/json",
    ) -> None:
        """Serialize one response and close (``Connection: close``)."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests"}
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        self._c_http.inc(path=path, status=str(status))
        writer.write(head.encode("latin-1") + body)
        try:
            await asyncio.wait_for(
                writer.drain(), self.config.drain_timeout_s
            )
        except (asyncio.TimeoutError, ConnectionError):
            self._c_disconnects.inc(cause="slow-reader")
            writer.transport.abort()

    async def _reply_line_error(
        self,
        writer: asyncio.StreamWriter,
        message: str,
        line_no: int,
        close: bool = False,
    ) -> None:
        """Best-effort structured error outside the writer-task path."""
        payload = self._line_error(message, line_no, reason="oversized")
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
        except ConnectionError:
            pass
        if close:
            writer.close()
