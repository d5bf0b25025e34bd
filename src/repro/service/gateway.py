"""Multi-stream serving gateway with micro-batched scoring.

:class:`~repro.serve.StreamingForecaster` hosts exactly one model for
one stream.  A production gateway (ROADMAP: "heavy traffic from
millions of users") hosts *many* named streams — tide gauges, sensors,
one per user — most of which share a handful of models.
:class:`ForecastService` is that surface:

* each stream is a named :class:`~repro.serve.RingWindowBuffer` bound
  to a registry model (or a directly supplied
  :class:`~repro.core.predictor.RuleSystem`);
* :meth:`~ForecastService.ingest` takes one **micro-batch** of events
  (interleaved across streams, in arrival order), pushes every value
  into its ring, stacks the resulting ready windows *per model*, and
  scores each stack with a single
  :meth:`~repro.core.compiled.CompiledRuleSystem.predict_windowsT`
  call — ``k`` events sharing a model cost one batched kernel pass
  instead of ``k`` single-pattern dispatches, which is where the
  multi-stream throughput comes from
  (``benchmarks/bench_service.py``: ≥5x over one forecaster per
  stream at 64 streams);
* per-stream coverage statistics and a service-level
  :meth:`~ForecastService.healthz` snapshot mirror the paper's
  "percentage of prediction" per stream and in aggregate.

**Bitwise contract.**  Micro-batching is a throughput decision, never a
numeric one: the forecasts a stream receives are bitwise identical to
feeding its values through a private ``StreamingForecaster`` one event
at a time, for any interleaving and any batch sizing
(``tests/property/test_service_batching.py``).  This holds because
``predict_windowsT`` and the single-pattern path both honour the
per-rule loop's scalar contract — stacking windows from different
streams changes which kernel runs, not what it computes per row.

Batches are **atomic**: every event is validated (known stream, finite
value) before any buffer is touched, so a bad event rejects the whole
batch without corrupting stream state — a multi-tenant gateway must
not let one stream's sensor gap poison another's forecast cadence.

Per-stream state lives in a pluggable :class:`~repro.service.store.
StreamStore` (in-process dict by default).  A store configured with an
idle TTL or a max-streams cap evicts cold streams — the gateway then
rejects their later events as unknown, exactly like a never-bound
stream — and the eviction count is surfaced in :meth:`ForecastService.
stats`.  Sharded serving (:mod:`repro.service.sharding`) runs one
store per worker process over shared compiled models.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..core.compiled import CompiledRuleSystem
from ..core.predictor import RuleSystem
from .registry import ModelRegistry, RegistryError
from .store import InMemoryStreamStore, StreamState, StreamStore

__all__ = ["Forecast", "ForecastService"]


class Forecast(NamedTuple):
    """Outcome of one ingested event — a stream-tagged stream step.

    A ``NamedTuple`` rather than a frozen dataclass: the gateway builds
    one per event on the hot path, and the C-level tuple constructor is
    ~4x cheaper than a frozen dataclass ``__init__`` — measurable at
    gateway throughput.  Field access is identical.

    Attributes
    ----------
    stream:
        The stream that received the observation.
    t:
        0-based index of the observation within its stream.
    value:
        Forecast ``horizon`` steps ahead; ``NaN`` while the stream's
        window is filling or when the model abstains.
    predicted:
        True when at least one rule matched the stream's window.
    n_rules_used:
        Number of rules that contributed to the forecast.
    ready:
        True once the stream holds a full window.
    model, version:
        The registry identity serving this stream (version 0 for
        directly bound systems).
    confidence, dispersion, interval_lo, interval_hi:
        Per-event uncertainty (see
        :class:`~repro.core.predictor.RichPredictionBatch`), populated
        only when a policy is attached (the gateway then scores through
        the rich kernel path — same point bits); ``None`` otherwise.
    decision:
        The attached policy's :class:`~repro.service.policy.Decision`
        for this event; ``None`` when no policy is attached.
    """

    stream: str
    t: int
    value: float
    predicted: bool
    n_rules_used: int
    ready: bool
    model: str
    version: int
    confidence: Optional[float] = None
    dispersion: Optional[float] = None
    interval_lo: Optional[float] = None
    interval_hi: Optional[float] = None
    decision: Optional[object] = None


class ForecastService:
    """Hosts many named streams over shared, versioned models.

    Parameters
    ----------
    registry:
        The :class:`~repro.service.ModelRegistry` that
        :meth:`bind` resolves model names against; optional when every
        stream is bound with :meth:`bind_system`.
    store:
        Where per-stream state lives; defaults to an unbounded
        :class:`~repro.service.store.InMemoryStreamStore`.  Pass one
        configured with ``ttl_s``/``max_streams`` to evict idle
        streams (multi-tenant serving must not grow without bound).

    Example
    -------
    >>> service = ForecastService(registry)
    >>> service.bind("gauge-venice", "venice-h1")      # promoted version
    >>> service.bind("gauge-chioggia", "venice-h1")    # shares the model
    >>> for out in service.ingest([("gauge-venice", 112.0),
    ...                            ("gauge-chioggia", 98.5)]):
    ...     if out.predicted and out.value > ALERT_LEVEL:
    ...         alert(out.stream, out.value)
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        store: Optional[StreamStore] = None,
    ) -> None:
        self.registry = registry
        self._store = store if store is not None else InMemoryStreamStore()
        # (name, version) -> persistent (d, cap) lag-major stack buffer
        # that ready windows land in column-wise; grown to the largest
        # batch seen.
        self._stack_bufs: Dict[Tuple[str, int], np.ndarray] = {}
        # (name, version) -> compiled pool; streams sharing a model
        # share one compiled pack (and one micro-batch per ingest).
        self._models: Dict[Tuple[str, int], CompiledRuleSystem] = {}
        self.n_events = 0
        self.n_batches = 0
        # Optional adaptation hook (see repro.service.adaptation): one
        # `is not None` test per batch when detached — the wire output
        # is bitwise unchanged with adaptation off.
        self._adaptation = None
        # Optional policy engine (see repro.service.policy): when
        # attached, scoring switches to the rich kernel path (same
        # point bits) and every forecast carries a Decision.
        self._policy = None

    # -- binding -------------------------------------------------------------

    def _add_stream(
        self,
        stream: str,
        system: Union[RuleSystem, CompiledRuleSystem],
        model_key: Tuple[str, int],
    ) -> None:
        if not stream:
            raise ValueError("stream name must be non-empty")
        if stream in self._store:
            raise ValueError(f"stream {stream!r} is already bound")
        if isinstance(system, RuleSystem):
            if not len(system):
                raise ValueError("cannot serve an empty rule system")
            compiled = system.compile()
        else:
            compiled = system
        cached = self._models.get(model_key)
        if cached is None:
            self._models[model_key] = compiled
        elif cached is not compiled:
            # A label must always name one system: scoring stream B with
            # the pool stream A registered under the same label would be
            # silently wrong (and a D mismatch would even be masked,
            # since the ring width comes from the cached model).
            name, version = model_key
            raise ValueError(
                f"model label {name!r}@v{version} is already bound to a "
                "different system; use a distinct label per system"
            )
        self._store.add(
            stream,
            StreamState(self._models[model_key].n_lags, model_key),
        )

    def bind(
        self, stream: str, model: str, version: Optional[int] = None
    ) -> None:
        """Bind a new stream to a registry model.

        ``version=None`` resolves the model's *promoted* version at
        bind time (the binding then stays pinned — a later promote
        affects new binds, not live streams).  Streams binding the same
        ``(model, version)`` share one compiled pool and one micro-batch
        per ingest.
        """
        if self.registry is None:
            raise RegistryError(
                "this service has no registry; construct it with one or "
                "use bind_system()"
            )
        record = self.registry.record(model, version)
        key = (record.name, record.version)
        if key in self._models:
            self._add_stream(stream, self._models[key], key)
        else:
            system, record = self.registry.load(model, record.version)
            self._add_stream(stream, system, key)

    def bind_system(
        self,
        stream: str,
        system: Union[RuleSystem, CompiledRuleSystem],
        model: str = "adhoc",
    ) -> None:
        """Bind a stream directly to an in-memory system (version 0).

        The registry-less path for examples, tests and notebooks; the
        shared-model micro-batching applies whenever the same ``model``
        label is reused (labels must then refer to the same system).
        """
        self._add_stream(stream, system, (model, 0))

    def bind_compiled(
        self,
        stream: str,
        system: Union[RuleSystem, CompiledRuleSystem],
        model: str,
        version: int = 0,
    ) -> None:
        """Bind a stream to a system under an explicit registry identity.

        The sharded gateway's worker-side path: the parent resolved
        ``(model, version)`` against the registry once, shipped the
        compiled blocks zero-copy, and the worker binds them here so
        per-stream stats report the true registry identity rather
        than an ad-hoc label.
        """
        self._add_stream(stream, system, (model, version))

    # -- adaptation ----------------------------------------------------------

    def attach_adaptation(self, hook) -> None:
        """Attach an adaptation observer to the ingest path.

        ``hook`` needs ``on_batch(batch, results, ready, stacks)``
        (called after the score phase of every ingested batch, before
        eviction sweeps) and ``stats()``; a ``forget(stream)`` method,
        when present, is wired up as the store's eviction callback so
        per-stream adaptation state never outlives the stream.  Both
        :class:`~repro.service.adaptation.AdaptationManager` and a bare
        :class:`~repro.service.adaptation.ShadowScorer` satisfy this.
        The hook observes — it must not mutate ``results``; shadow
        forecasts never reach the wire.
        """
        if self._adaptation is not None:
            raise ValueError(
                "an adaptation hook is already attached; detach it first"
            )
        self._adaptation = hook
        self._wire_evict()

    def detach_adaptation(self):
        """Detach and return the adaptation hook (``None`` if absent)."""
        hook, self._adaptation = self._adaptation, None
        self._wire_evict()
        return hook

    # -- policy --------------------------------------------------------------

    def attach_policy(self, engine) -> None:
        """Attach a guardrail policy to the ingest path.

        ``engine`` is a :class:`~repro.service.policy.PolicyEngine` (or
        anything with the same ``decide``/``forget``/``stats`` shape).
        With a policy attached the gateway scores through the rich
        kernel path — point values stay bitwise identical — and every
        returned :class:`Forecast` carries uncertainty fields plus the
        policy's :class:`~repro.service.policy.Decision`.  Per-stream
        policy state is dropped on store eviction via ``forget``.
        """
        if self._policy is not None:
            raise ValueError(
                "a policy engine is already attached; detach it first"
            )
        self._policy = engine
        self._wire_evict()

    def detach_policy(self):
        """Detach and return the policy engine (``None`` if absent)."""
        engine, self._policy = self._policy, None
        self._wire_evict()
        return engine

    def _wire_evict(self) -> None:
        """Point the store's eviction callback at the attached hooks.

        Adaptation and policy each keep per-stream state that must not
        outlive the stream; with both attached the callback fans out to
        both ``forget`` methods.
        """
        callbacks = []
        if self._adaptation is not None:
            forget = getattr(self._adaptation, "forget", None)
            if forget is not None:
                callbacks.append(forget)
        if self._policy is not None:
            forget = getattr(self._policy, "forget", None)
            if forget is not None:
                callbacks.append(forget)
        if not callbacks:
            self._store.on_evict = None
        elif len(callbacks) == 1:
            self._store.on_evict = callbacks[0]
        else:
            def fan_out(stream: str) -> None:
                for forget in callbacks:
                    forget(stream)

            self._store.on_evict = fan_out

    def swap_model(
        self,
        old_key: Tuple[str, int],
        system: Union[RuleSystem, CompiledRuleSystem],
        version: int,
    ) -> int:
        """Rebind every stream on ``old_key`` to a new model version.

        The promotion primitive: streams keep their ring buffers (the
        new version scores the very next window — no warm-up gap) and
        only their ``model_key`` changes.  The old compiled pool stays
        cached in the service so a rollback swap is symmetric.  The new
        system must share the old one's window width — a different
        ``d`` cannot score the existing rings.  Returns the number of
        streams rebound.
        """
        name = old_key[0]
        new_key = (name, int(version))
        if new_key == old_key:
            return 0
        old = self._models.get(old_key)
        if old is None:
            raise ValueError(f"unknown model key {old_key!r}")
        compiled = system.compile() if isinstance(system, RuleSystem) else system
        if compiled.n_lags != old.n_lags:
            raise ValueError(
                f"cannot swap {name!r} v{old_key[1]} -> v{version}: window "
                f"width changed ({old.n_lags} -> {compiled.n_lags}); live "
                "rings cannot be re-windowed"
            )
        cached = self._models.get(new_key)
        if cached is None:
            self._models[new_key] = compiled
        elif cached is not compiled:
            raise ValueError(
                f"model label {name!r}@v{version} is already bound to a "
                "different system"
            )
        rebound = 0
        for _stream, state in self._store.items():
            if state.model_key == old_key:
                state.model_key = new_key
                rebound += 1
        return rebound

    # -- introspection -------------------------------------------------------

    def streams(self) -> List[str]:
        """Sorted names of all bound streams."""
        return self._store.names()

    def stream_stats(self, stream: str) -> Dict[str, object]:
        """Per-stream counters (the per-stream half of :meth:`stats`)."""
        state = self._stream(stream)
        name, version = state.model_key
        ready_steps = state.n_steps
        return {
            "model": name,
            "version": version,
            "events": state.ring.count,
            "ready": state.ring.ready,
            "ready_steps": ready_steps,
            "predicted_steps": state.n_predicted,
            "coverage": (
                state.n_predicted / ready_steps if ready_steps else 0.0
            ),
        }

    def stats(self) -> Dict[str, object]:
        """Full service statistics: aggregate plus per-stream."""
        per_stream = {s: self.stream_stats(s) for s in self.streams()}
        ready_steps = sum(s["ready_steps"] for s in per_stream.values())
        predicted = sum(s["predicted_steps"] for s in per_stream.values())
        out = {
            "streams": len(self._store),
            "models": sorted(
                f"{name}@v{version}" for name, version in self._models
            ),
            "events": self.n_events,
            "micro_batches": self.n_batches,
            "ready_steps": ready_steps,
            "predicted_steps": predicted,
            "coverage": predicted / ready_steps if ready_steps else 0.0,
            "evicted_streams": self._store.evicted_streams,
            "per_stream": per_stream,
        }
        if self._adaptation is not None:
            out["adaptation"] = self._adaptation.stats()
        if self._policy is not None:
            out["policy"] = self._policy.stats()
        return out

    def healthz(self) -> Dict[str, object]:
        """A ``/healthz``-style liveness snapshot (aggregate only)."""
        stats = self.stats()
        stats.pop("per_stream")
        stats["status"] = "ok" if len(self._store) else "no-streams"
        return stats

    def _stream(self, stream: str) -> StreamState:
        state = self._store.get(stream)
        if state is None:
            known = ", ".join(self.streams()) or "none"
            raise ValueError(
                f"unknown stream {stream!r} (bound: {known})"
            ) from None
        return state

    # -- ingest --------------------------------------------------------------

    def ingest(
        self, events: Iterable[Tuple[str, float]]
    ) -> List[Forecast]:
        """Ingest one micro-batch of ``(stream, value)`` events.

        Events are applied in order (two events for one stream in a
        batch produce two consecutive windows, exactly as two
        ``update`` calls would).  The whole batch is validated before
        any buffer is mutated — a non-finite value or unknown stream
        raises ``ValueError`` and leaves every stream untouched.

        Returns one :class:`Forecast` per event, in input order.
        """
        batch: List[Tuple[str, StreamState, float]] = []
        get_state = self._store.get
        isfinite = math.isfinite
        for stream, value in events:
            state = get_state(stream)
            if state is None:
                state = self._stream(stream)  # raises with bound names
            v = float(value)
            if not isfinite(v):
                raise ValueError(
                    f"non-finite observation {value!r} for stream "
                    f"{stream!r}; fill or drop sensor gaps upstream "
                    "(batch rejected, no stream state was modified)"
                )
            batch.append((stream, state, v))
        if not batch:
            return []

        # Push phase: windows must be copied out as they form — a later
        # event for the same stream advances the ring and would
        # invalidate the zero-copy view.  Each ready window lands
        # column-wise in the model's persistent lag-major buffer, scored
        # in place by ``predict_windowsT`` (no per-flush stack
        # allocation, no transpose copy inside the kernel).
        results: List[Optional[Forecast]] = [None] * len(batch)
        ready: Dict[Tuple[str, int], List[Tuple[int, StreamState, int]]] = {}
        stacks: Dict[Tuple[str, int], np.ndarray] = {}
        policy = self._policy
        rich = policy is not None
        decide = policy.decide if rich else None
        n_warmup = 0
        # touch() is a per-event call whose only purpose is eviction
        # bookkeeping; skip it wholesale when the store says it no-ops.
        touch = self._store.touch if self._store.tracks_activity else None
        for i, (stream, state, v) in enumerate(batch):
            if touch is not None:
                touch(stream)
            ring = state.ring
            t = ring.count
            if t + 1 >= ring.d:  # ready after this push (no property call)
                key = state.model_key
                members = ready.get(key)
                if members is None:
                    members = ready[key] = []
                    buf = self._stack_bufs.get(key)
                    if buf is None or buf.shape[1] < len(batch):
                        buf = np.empty((ring.d, len(batch)))
                        self._stack_bufs[key] = buf
                    stacks[key] = buf
                ring.push_into(v, stacks[key][:, len(members)])
                members.append((i, state, t))
            else:
                ring.push(v)
                name, version = state.model_key
                if rich:
                    # Warm-up verdicts are a shared singleton, bulk-
                    # counted after the loop (they touch no per-stream
                    # machine state).
                    n_warmup += 1
                    results[i] = Forecast(
                        stream=stream, t=t, value=float("nan"),
                        predicted=False, n_rules_used=0, ready=False,
                        model=name, version=version, confidence=0.0,
                        dispersion=0.0, interval_lo=float("nan"),
                        interval_hi=float("nan"),
                        decision=policy.NOT_READY,
                    )
                else:
                    results[i] = Forecast(
                        stream=stream, t=t, value=float("nan"),
                        predicted=False, n_rules_used=0, ready=False,
                        model=name, version=version,
                    )
        self.n_events += len(batch)
        if rich and n_warmup:
            policy.tally(policy.NOT_READY, n_warmup)

        # Score phase: one batched call per model with >= 1 ready window.
        for model_key, members in ready.items():
            scored = self._models[model_key].predict_windowsT(
                stacks[model_key], len(members), rich=rich
            )
            self.n_batches += 1
            name, version = model_key
            # One C-level conversion per batch instead of three numpy
            # scalar extractions per event.
            values = scored.values.tolist()
            predicted_flags = scored.predicted.tolist()
            rules_used = scored.n_rules_used.tolist()
            if rich:
                confidences = scored.confidence.tolist()
                dispersions = scored.dispersion.tolist()
                interval_los = scored.interval_lo.tolist()
                interval_his = scored.interval_hi.tolist()
                # Certain passes take the vectorized shortcut: one
                # shared Decision singleton, counters bumped in bulk.
                # Latched streams and anything near a guardrail or
                # threshold run the full per-event state machine —
                # per-stream decision sequences are identical either
                # way (the policy property suite holds the two paths
                # bitwise equal).
                fast_rows = policy.prefilter(scored).tolist()
                latched = policy._latched
                fast_pass = policy.PASS
                no_prediction = policy.NO_PREDICTION
                low_match = policy.LOW_MATCH
                min_matches = policy.spec.min_matches
                new = tuple.__new__
                cls = Forecast
                n_fast = n_nopred = n_lowmatch = 0
                for (i, state, t), value, predicted, n_used, conf, \
                        disp, lo, hi, fast in zip(
                            members, values, predicted_flags, rules_used,
                            confidences, dispersions, interval_los,
                            interval_his, fast_rows):
                    stream = batch[i][0]
                    state.n_steps += 1
                    if predicted:
                        state.n_predicted += 1
                        if fast and stream not in latched:
                            n_fast += 1
                            decision = fast_pass
                        elif n_used < min_matches:
                            n_lowmatch += 1
                            decision = low_match
                        else:
                            decision = decide(
                                stream, t, True, True, n_used, value,
                                conf, hi - lo,
                            )
                    else:
                        n_nopred += 1
                        decision = no_prediction
                    # Bound ``tuple.__new__`` is one C call per event
                    # — no generated-``__new__`` frame, no ``_make``
                    # classmethod wrapper; this loop runs once per
                    # event on the policy hot path.
                    results[i] = new(cls, (
                        stream, t, value, predicted, n_used, True,
                        name, version, conf, disp, lo, hi, decision,
                    ))
                policy.tally(fast_pass, n_fast)
                policy.tally(no_prediction, n_nopred)
                policy.tally(low_match, n_lowmatch)
            else:
                # Same bound ``tuple.__new__`` trick as the policy
                # branch: one C call per event on the plain hot path
                # (the keyword constructor pays a generated-``__new__``
                # frame plus default fill-in per event).
                new = tuple.__new__
                cls = Forecast
                for (i, state, t), value, predicted, n_used in zip(
                        members, values, predicted_flags, rules_used):
                    state.n_steps += 1
                    if predicted:
                        state.n_predicted += 1
                    results[i] = new(cls, (
                        batch[i][0], t, value, predicted, n_used, True,
                        name, version, None, None, None, None, None,
                    ))
        # Policy decisions were attached as each Forecast was built.
        # Within one batch a stream's events score in input order (and
        # its warm-up events precede them without touching latch
        # state), so per-stream decision sequences are a pure function
        # of that stream's event sequence — the property the sharded
        # gateway's byte-identical replay rests on.
        # Adaptation observes the finished batch (every results slot is
        # filled here) before eviction sweeps, so shadow scoring reuses
        # the stacks built above and maturing forecasts see their
        # stream's state while it is still guaranteed to exist.
        if self._adaptation is not None:
            self._adaptation.on_batch(batch, results, ready, stacks)
        # Evictions happen after the batch is fully applied: an event
        # for an idle-expired stream that arrived in THIS batch counts
        # as activity (the touch above) and keeps it alive.
        self._store.sweep()
        return [r for r in results if r is not None]

    def ingest_one(self, stream: str, value: float) -> Forecast:
        """Single-event convenience (a micro-batch of one)."""
        return self.ingest([(stream, value)])[0]
