"""Layer boundaries of ``repro`` and the per-layer metrics built on them.

:func:`instrument` wraps the public function at every layer boundary the
in-process workloads cross; :func:`layer_metrics` turns the recorded
spans and counters into the per-layer metrics listed in
``BENCHMARK.json``.  A layer a workload never reaches reports 0.
"""

from __future__ import annotations

import importlib
from typing import Dict

from .common import SPEC
from .spans import Tracer

#: ``BENCHMARK.json``'s ``per_layer`` metrics: name -> unit.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers whose self time is reported (``bench`` is the benchmark's own
#: loop: time inside the traced window that no ``repro`` layer covers).
LAYERS = ("engine", "multirun", "compiled", "gateway", "policy",
          "adaptation", "orchestrator", "registry", "bench")


def count_windows(key: str):
    def on_return(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(key, len(result.values))
    return on_return


def _on_step(tracer: Tracer, args: tuple, accepted) -> None:
    tracer.batch += 1
    if accepted:
        tracer.count("engine.accepted")


def _on_multirun(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("multirun.pool_rules", len(result.system))


def on_ingest(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("gateway.events", len(result))


def _on_tally(tracer: Tracer, args: tuple, result) -> None:
    engine, decision, n = args
    tracer.count("policy.tallied", n)
    if decision is engine.PASS:
        tracer.count("policy.fast_pass", n)


def _on_batch(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("adaptation.events", len(args[1]))


def instrument(tracer: Tracer) -> None:
    """Wrap every in-process layer boundary (undo with ``restore``)."""
    # ``repro.core`` re-exports functions named like some of its
    # submodules (``multirun``), so the modules are looked up by name.
    engine = importlib.import_module("repro.core.engine")
    multirun = importlib.import_module("repro.core.multirun")
    compiled = importlib.import_module("repro.core.compiled").CompiledRuleSystem
    orchestrator = importlib.import_module("repro.analysis.orchestrator")
    from repro.service.adaptation import AdaptationManager
    from repro.service.gateway import ForecastService
    from repro.service.policy import PolicyEngine
    from repro.service.registry import ModelRegistry

    wrap = tracer.wrap
    wrap(engine.SteadyStateEngine, "initialize", "engine.init")
    wrap(engine.SteadyStateEngine, "step", "engine.step", _on_step)
    wrap(engine, "select_parents", "engine.select")
    wrap(engine, "uniform_crossover", "engine.crossover")
    wrap(engine, "mutate", "engine.mutate")
    wrap(engine, "evaluate_rule", "engine.evaluate")
    wrap(engine, "replacement_index", "engine.replacement_index")
    wrap(engine, "try_replace", "engine.try_replace")
    wrap(multirun, "multirun", "multirun.multirun", _on_multirun)
    wrap(multirun, "run_execution", "multirun.execution")
    wrap(multirun, "coverage_fraction", "multirun.coverage")
    wrap(orchestrator, "run_execution", "multirun.retrain_execution")
    wrap(orchestrator.ExperimentOrchestrator, "run_tasks",
         "orchestrator.run_tasks")
    wrap(compiled, "__init__", "compiled.compile")
    wrap(compiled, "predict", "compiled.predict",
         count_windows("compiled.predict_windows_n"))
    wrap(compiled, "predict_windows", "compiled.predict_windows",
         count_windows("compiled.predict_windows_rows"))
    wrap(compiled, "predict_windowsT", "compiled.predictT",
         count_windows("compiled.predictT_windows"))
    wrap(ForecastService, "ingest", "gateway.ingest", on_ingest)
    wrap(PolicyEngine, "prefilter", "policy.prefilter")
    wrap(PolicyEngine, "tally", "policy.tally", _on_tally)
    wrap(AdaptationManager, "on_batch", "adaptation.on_batch", _on_batch)
    wrap(AdaptationManager, "poll", "adaptation.poll")
    wrap(ModelRegistry, "register", "registry.register")
    wrap(ModelRegistry, "load", "registry.load")
    wrap(ModelRegistry, "promote", "registry.promote")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    Only spans inside the run's ``bench.setup`` and ``bench.measure``
    phases count.  Workload-specific counters (``policy.evaluated``,
    ``adaptation.*``, ``server.*``, ...) arrive through
    ``tracer.counts``.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gens = calls("engine.step")
    events = counts["gateway.events"]
    predict_t_windows = counts["compiled.predictT_windows"]
    row_windows = counts["compiled.predict_windows_rows"]
    out = {
        "engine.select_us_per_gen": ratio(total("engine.select"), gens) * 1e6,
        "engine.vary_us_per_gen": ratio(
            total("engine.crossover") + total("engine.mutate"), gens) * 1e6,
        "engine.evaluate_us_per_gen": ratio(total("engine.evaluate"), gens) * 1e6,
        "engine.replace_us_per_gen": ratio(
            total("engine.replacement_index") + total("engine.try_replace"),
            gens) * 1e6,
        "engine.step_self_us_per_gen": ratio(
            totals.get("engine.step", {}).get("self_s", 0.0), gens) * 1e6,
        "engine.init_s": total("engine.init"),
        "engine.accept_ratio": ratio(counts["engine.accepted"], gens),
        "multirun.coverage_s": total("multirun.coverage"),
        "multirun.executions": calls("multirun.execution"),
        "multirun.pool_rules": ratio(
            counts["multirun.pool_rules"], calls("multirun.multirun")),
        "compiled.compile_s": total("compiled.compile"),
        "compiled.predict_us_per_window": ratio(
            total("compiled.predict"), counts["compiled.predict_windows_n"]) * 1e6,
        "compiled.predictT_us_per_window": ratio(
            total("compiled.predictT"), predict_t_windows) * 1e6,
        "compiled.predict_windows_us_per_window": ratio(
            total("compiled.predict_windows"), row_windows) * 1e6,
        "compiled.windows_per_call": ratio(
            predict_t_windows + row_windows,
            calls("compiled.predictT") + calls("compiled.predict_windows")),
        "gateway.ingest_us_per_event": ratio(total("gateway.ingest"), events) * 1e6,
        "gateway.self_us_per_event": ratio(
            totals.get("gateway.ingest", {}).get("self_s", 0.0), events) * 1e6,
        "gateway.events_per_call": ratio(events, calls("gateway.ingest")),
        "policy.prefilter_us_per_batch": ratio(
            total("policy.prefilter"), calls("policy.prefilter")) * 1e6,
        "policy.decide_calls": counts["policy.evaluated"] - counts["policy.tallied"],
        "policy.fast_pass_ratio": ratio(
            counts["policy.fast_pass"], counts["policy.evaluated"]),
        "adaptation.on_batch_us_per_event": ratio(
            total("adaptation.on_batch"), counts["adaptation.events"]) * 1e6,
        "adaptation.poll_s": total("adaptation.poll"),
        "adaptation.poll_max_ms": totals.get(
            "adaptation.poll", {}).get("max_s", 0.0) * 1e3,
        "adaptation.drift_events": counts["adaptation.drift_events"],
        "adaptation.retrain_executions": calls("multirun.retrain_execution"),
        "adaptation.promotions": counts["adaptation.promotions"],
        "orchestrator.self_s": totals.get(
            "orchestrator.run_tasks", {}).get("self_s", 0.0),
        "registry.register_s": total("registry.register"),
        "registry.load_s": total("registry.load"),
        "registry.promote_s": total("registry.promote"),
    }
    for name in ("server.cpu_us_per_event", "server.ingest_us_per_event",
                 "server.self_cpu_us_per_event", "server.overloaded",
                 "batcher.events_per_flush", "batcher.flushes",
                 "batcher.queue_p50_ms", "metrics.scrape_ms",
                 "client.cpu_us_per_event", "client.send_lag_p99_ms",
                 "trace.overhead_pct"):
        out[name] = counts[name]
    self_s = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s.get(layer, 0.0) + counts[f"self_s.{layer}"]
    wall_s = tracer.wall_s()
    layers_s = sum(out[f"self_s.{layer}"] for layer in LAYERS if layer != "bench")
    out["trace.wall_s"] = wall_s
    out["trace.accounted_pct"] = ratio(layers_s, wall_s) * 100.0
    assert set(out) == set(PER_LAYER), set(out) ^ set(PER_LAYER)
    return out
