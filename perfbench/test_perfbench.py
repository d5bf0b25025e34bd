"""The benchmark's own tests: tiny runs of every workload, the oracle
checks' teeth, and agreement between printed names and BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import common, ingest_inproc, ingest_tcp, run
from perfbench.common import (
    BLOCK_REFERENCE_NOMINAL_S,
    REFERENCE_NOMINAL_S,
    BlockScaler,
    Outcome,
)
from perfbench.loadgen import Phase
from perfbench.serving import serving_pool, stream_names, stream_values
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_tiny_and_prints_the_declared_metrics(capsys, workload):
    # ingest_tcp's nominal phase lasts 60% of the run: 1 s gives 300
    # events.  A tiny run skips the timing verdicts, so only the oracle
    # decides.
    seconds = "1.0" if workload == "ingest_tcp" else "0.3"
    lines, result = _run(capsys, "--workload", workload, "--seed", "3",
                         "--seconds", seconds, "--trace", "0", "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [x for x in lines if x.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(x.startswith("env ") for x in lines)
    assert any(x.startswith("metric failed_frac = 0 ") for x in lines)


def test_traced_run_prints_every_per_layer_metric(capsys):
    lines, result = _run(capsys, "--workload", "ingest_inproc", "--seed", "3",
                         "--seconds", "0.4", "--trace", "1", "--tiny")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["gateway.events_per_call"] == 8
    assert metrics["compiled.predictT_us_per_window"] > 0
    assert 0 < metrics["trace.accounted_pct"] <= 100.0 + 1e-6
    assert metrics["self_s.engine"] == 0.0


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_inproc_checks_the_first_and_last_batch_column():
    assert ingest_inproc.checked_positions(ingest_inproc.FULL) == [
        [0, 36], [9, 45], [18, 54], [27, 63]]
    assert ingest_inproc.checked_positions(ingest_inproc.TINY) == [[0, 5], [2, 7]]


def _corrupt_ingest(monkeypatch, call, change):
    """Apply ``change`` to what the ``call``-th ``ingest`` call returns."""
    from repro.service import ForecastService

    ingest = ForecastService.ingest
    calls = []

    def corrupt(self, events):
        out = ingest(self, events)
        calls.append(len(events))
        if len(events) > 1 and len(calls) == call:
            out = change(out)
        return out

    monkeypatch.setattr(ForecastService, "ingest", corrupt)


# Tiny size: 60 warm-up calls, then measured ones; even calls (1-based)
# hold chunk 1, whose checked columns are 2 and 7; odd calls chunk 0.
@pytest.mark.parametrize("call,column", [(70, -1), (71, 0)])
def test_inproc_oracle_catches_a_wrong_forecast(monkeypatch, call, column):
    def shift(out):
        out[column] = out[column]._replace(value=out[column].value + 1.0)
        return out

    _corrupt_ingest(monkeypatch, call, shift)
    outcome = ingest_inproc.run(3, 0.3, tiny=True)
    assert outcome.failed == 1 and "differ" in outcome.problems[0]


def test_inproc_oracle_catches_a_missing_trailing_forecast(monkeypatch):
    _corrupt_ingest(monkeypatch, 71, lambda out: out[:-1])
    outcome = ingest_inproc.run(3, 0.3, tiny=True)
    assert outcome.failed == 1
    assert "did not return one forecast per event" in outcome.problems[0]


def _replayed_phase(n_streams=4, n_events=60):
    """A phase whose replies are exactly what a correct server sends."""
    from repro.service import ForecastService
    from repro.service.server import forecast_to_dict

    names = stream_names(n_streams)
    values = stream_values(5, n_streams, 64)
    pool = serving_pool(5)
    service = ForecastService()
    for name in names:
        service.bind_system(name, pool, model="pool")
    ph = Phase(rate=100.0, first=0)
    for g in range(n_events):
        s = g % n_streams
        forecast = service.ingest_one(names[s], float(values[g // n_streams, s]))
        ph.replies.append(json.dumps(forecast_to_dict(forecast)).encode())
    return ph, names, values, pool


def test_tcp_oracle_catches_a_dropped_and_a_wrong_reply():
    ph, names, values, pool = _replayed_phase()
    out = Outcome()
    assert ingest_tcp.check_replies([ph], names, values, pool, out, 1) == 60
    assert out.failed == 0

    ph.replies[50] = None
    out = Outcome()
    ingest_tcp.check_replies([ph], names, values, pool, out, 1)
    assert out.failed == 1 and "missing" in out.problems[0]

    ph, names, values, pool = _replayed_phase()
    ph.replies[55] = ph.replies[55].replace(b'"t": ', b'"t": 1')
    out = Outcome()
    ingest_tcp.check_replies([ph], names, values, pool, out, 1)
    assert out.failed == 1 and "differ" in out.problems[0]


def test_tcp_dropped_nominal_reply_is_a_failure_not_a_crash(monkeypatch):
    send = ingest_tcp.OpenLoopClient.run
    phases = []

    def drop(self, events, rate, first=0):
        ph = send(self, events, rate, first)
        phases.append(ph)
        if len(phases) == 2:  # warm-up, then the nominal phase
            ph.replies[5] = ph.latency[5] = None
        return ph

    monkeypatch.setattr(ingest_tcp.OpenLoopClient, "run", drop)
    outcome = ingest_tcp.run(3, 1.0, tiny=True)
    assert outcome.failed == 1 and outcome.problems == ["1 replies missing"]
    report = {name: value for name, value, _unit, _n in outcome.report}
    assert math.isnan(report["max_rate_eps"])


def test_tcp_overload_counts_only_on_ladder_rungs():
    ph, names, values, pool = _replayed_phase()
    ph.replies[59] = b'{"error": "overloaded", "line": 60}'
    out = Outcome()
    ingest_tcp.check_replies([ph], names, values, pool, out, ladder_from=0)
    assert out.failed == 0
    ingest_tcp.check_replies([ph], names, values, pool, out, ladder_from=1)
    assert out.failed == 1


def test_gated_figures_are_scaled_to_the_nominal_host(monkeypatch):
    # A host twice as slow as the nominal one.
    monkeypatch.setattr(common, "reference_s", lambda: 2 * REFERENCE_NOMINAL_S)
    out = Outcome()
    for _ in range(3):
        out.add_setup(4.0)
    out.set_end_to_end(100.0, 50.0, 8.0)
    assert out.end_to_end == {"setup_s": 2.0, "peak_rss_mb": 100.0,
                              "ops_per_s": 100.0, "latency_p50_ms": 4.0}
    assert out.report == [("host_slowness", 2.0, "ratio", 3),
                          ("setup_s", 4.0, "s", 3)]
    out.set_end_to_end(100.0, 50.0, 8.0, scale_latency=False)
    assert out.end_to_end == {"setup_s": 2.0, "peak_rss_mb": 100.0,
                              "ops_per_s": 100.0, "latency_p50_ms": 8.0}
    out.set_end_to_end(100.0, 50.0, 8.0, scale_rate=False, scale_latency=False)
    assert out.end_to_end == {"setup_s": 2.0, "peak_rss_mb": 100.0,
                              "ops_per_s": 50.0, "latency_p50_ms": 8.0}


def test_block_scaler_divides_each_block_by_its_own_slowness(monkeypatch):
    # The reference reads nominal, then twice as slow, then nominal again.
    refs = iter(f * BLOCK_REFERENCE_NOMINAL_S for f in (1, 3, 1, 1))
    monkeypatch.setattr(common, "block_reference_s", lambda: next(refs))
    scaler = BlockScaler(2)
    scaler.start()
    for t in (2.0, 4.0, 6.0, 8.0):
        scaler.add(t)
    assert scaler.slowness == [2.0, 2.0]
    scaler.add(10.0)
    scaler.close()  # a short last block
    assert scaler.raw == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert scaler.scaled == [1.0, 2.0, 3.0, 4.0, 10.0]
    assert scaler.slowness == [2.0, 2.0, 1.0]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    class Layer:
        def inner(self):
            time.sleep(0.02)

        def outer(self):
            self.inner()
            time.sleep(0.01)

    tracer.wrap(Layer, "inner", "a.inner")
    tracer.wrap(Layer, "outer", "b.outer")
    try:
        with tracer.span("bench.measure"):
            Layer().outer()
    finally:
        tracer.restore()
    assert "inner" in Layer.__dict__ and not hasattr(Layer.inner, "__wrapped__")
    totals = tracer.totals()
    assert totals["b.outer"]["total_s"] >= 0.03
    assert 0.009 <= totals["b.outer"]["self_s"] < totals["b.outer"]["total_s"] - 0.019
    assert tracer.wall_s() == pytest.approx(
        sum(tracer.layer_self_s().values()), rel=1e-9)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_venice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
