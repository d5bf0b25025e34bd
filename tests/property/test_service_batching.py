"""Property tests: micro-batched multi-stream serving vs per-stream loops.

The acceptance bar of the serving gateway
(:class:`repro.service.ForecastService`): for *any* pool, any set of
streams, any interleaving of their events and any micro-batch
partitioning, every stream receives **bitwise** the forecasts a private
:class:`~repro.serve.StreamingForecaster` would have produced one event
at a time — which in turn is held bitwise to the per-rule loop oracle.
Micro-batching must be invisible in the output bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledRuleSystem
from repro.core.predictor import RuleSystem
from repro.core.rule import Rule
from repro.serve import StreamingForecaster
from repro.service import ForecastService


def random_pool(rng, n_rules, d, p_wildcard=0.3, p_linear=0.5, width=0.3):
    """A plausible evolved pool (same recipe as the compiled-path suite)."""
    rules = []
    for _ in range(n_rules):
        lo = rng.uniform(0, 1 - width, size=d)
        hi = lo + rng.uniform(0.05, width, size=d)
        rule = Rule.from_box(lo, hi, prediction=float(rng.normal()))
        rule.wildcard = rng.random(d) < p_wildcard
        rule.error = float(rng.uniform(0.01, 1.0))
        if rng.random() < p_linear:
            rule.coeffs = np.concatenate(
                [rng.normal(scale=0.5, size=d), [float(rng.normal())]]
            )
        rules.append(rule)
    return rules


def interleaved_events(rng, streams):
    """A random arrival order mixing all streams' values, per-stream FIFO."""
    remaining = {name: list(vals) for name, vals in streams.items()}
    order = [
        name
        for name, vals in streams.items()
        for _ in range(len(vals))
    ]
    rng.shuffle(order)
    return [(name, remaining[name].pop(0)) for name in order]


def partitions(rng, events, max_batch):
    """Split the event list into random micro-batches, order preserved."""
    batches = []
    i = 0
    while i < len(events):
        size = int(rng.integers(1, max_batch + 1))
        batches.append(events[i : i + size])
        i += size
    return batches


class TestMicroBatchingBitwise:
    @given(
        st.integers(1, 6),        # d
        st.integers(1, 25),       # rules
        st.integers(1, 6),        # streams
        st.integers(0, 40),       # events per stream
        st.integers(1, 17),       # max micro-batch size
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_gateway_equals_per_stream_forecasters(
        self, d, n_rules, n_streams, per_stream, max_batch, seed
    ):
        """Any pool / interleaving / batch split: bitwise per stream."""
        rng = np.random.default_rng(seed)
        pool = RuleSystem(random_pool(rng, n_rules, d))
        streams = {
            f"s{k}": rng.uniform(-0.2, 1.2, size=per_stream)
            for k in range(n_streams)
        }
        events = interleaved_events(rng, streams)

        service = ForecastService()
        for name in streams:
            service.bind_system(name, pool, model="shared")
        outputs = {name: [] for name in streams}
        for batch in partitions(rng, events, max_batch):
            for forecast in service.ingest(batch):
                outputs[forecast.stream].append(forecast)

        for name, values in streams.items():
            forecaster = StreamingForecaster(pool)
            steps = forecaster.extend(values)
            assert len(outputs[name]) == len(steps)
            for forecast, step in zip(outputs[name], steps):
                assert forecast.t == step.t
                assert forecast.ready == step.ready
                assert forecast.predicted == step.predicted
                assert forecast.n_rules_used == step.n_rules_used
                assert (forecast.model, forecast.version) == ("shared", 0)
                assert np.array_equal(
                    [forecast.value], [step.value], equal_nan=True
                )
            # Coverage bookkeeping agrees with the reference stream.
            stats = service.stream_stats(name)
            assert stats["ready_steps"] == forecaster.n_steps
            assert stats["predicted_steps"] == forecaster.n_predicted
            assert stats["coverage"] == forecaster.coverage

    @given(
        st.integers(1, 5),        # d
        st.integers(1, 20),       # rules
        st.integers(0, 120),      # windows
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_predict_windows_equals_loop_oracle(
        self, d, n_rules, n_windows, seed
    ):
        """The batch-of-windows entry point vs the per-rule loop."""
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, n_rules, d)
        system = RuleSystem(rules)
        compiled = CompiledRuleSystem(rules)
        windows = rng.uniform(-0.2, 1.2, size=(n_windows, d))
        oracle = system.predict(windows, compiled=False)
        fast = compiled.predict_windows(windows)
        assert np.array_equal(oracle.values, fast.values, equal_nan=True)
        assert np.array_equal(oracle.predicted, fast.predicted)
        assert np.array_equal(oracle.n_rules_used, fast.n_rules_used)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_stream_repeated_in_one_batch(self, seed):
        """Multiple events for one stream in a single micro-batch form
        consecutive windows, exactly as consecutive update() calls."""
        rng = np.random.default_rng(seed)
        pool = RuleSystem(random_pool(rng, 12, 3))
        values = rng.uniform(0, 1, size=20)

        service = ForecastService()
        service.bind_system("only", pool)
        outputs = service.ingest([("only", v) for v in values])

        steps = StreamingForecaster(pool).extend(values)
        for forecast, step in zip(outputs, steps):
            assert forecast.t == step.t
            assert np.array_equal(
                [forecast.value], [step.value], equal_nan=True
            )
            assert forecast.n_rules_used == step.n_rules_used

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mixed_models_score_independently(self, seed):
        """Streams on different models never contaminate each other."""
        rng = np.random.default_rng(seed)
        pool_a = RuleSystem(random_pool(rng, 10, 4))
        pool_b = RuleSystem(random_pool(rng, 15, 4))
        series = {name: rng.uniform(0, 1, size=15) for name in "abc"}

        service = ForecastService()
        service.bind_system("a", pool_a, model="A")
        service.bind_system("b", pool_b, model="B")
        service.bind_system("c", pool_a, model="A")   # shares A's batch
        outputs = {name: [] for name in "abc"}
        for i in range(15):
            for forecast in service.ingest(
                [(name, series[name][i]) for name in "abc"]
            ):
                outputs[forecast.stream].append(forecast)

        for name, pool in (("a", pool_a), ("b", pool_b), ("c", pool_a)):
            steps = StreamingForecaster(pool).extend(series[name])
            for forecast, step in zip(outputs[name], steps):
                assert np.array_equal(
                    [forecast.value], [step.value], equal_nan=True
                )


def row_major_baseline(pool, streams, forecasts, rich=False):
    """Score every ready forecast's window through the row-major
    ``predict_windows`` entry in one ``(k, d)`` stack — the layout the
    gateway's lag-major ``(d, cap)`` buffers replace."""
    compiled = pool.compile()
    d = compiled.n_lags
    windows = np.array(
        [streams[f.stream][f.t - d + 1 : f.t + 1] for f in forecasts if f.ready]
    ).reshape(-1, d)
    return compiled.predict_windows(windows, rich=rich)


class TestFusedStacking:
    """The gateway's lag-major stacks and the transposed entry point."""

    @given(
        st.integers(1, 6),        # d
        st.integers(1, 25),       # rules
        st.integers(1, 6),        # streams
        st.integers(0, 40),       # events per stream
        st.integers(1, 17),       # max micro-batch size
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_fused_equals_baseline_gateway(
        self, d, n_rules, n_streams, per_stream, max_batch, seed
    ):
        """Any pool / interleaving / batch split: the gateway's
        lag-major scoring equals a row-major replay bitwise."""
        rng = np.random.default_rng(seed)
        pool = RuleSystem(random_pool(rng, n_rules, d))
        streams = {
            f"s{k}": rng.uniform(-0.2, 1.2, size=per_stream)
            for k in range(n_streams)
        }
        events = interleaved_events(rng, streams)

        service = ForecastService()
        for name in streams:
            service.bind_system(name, pool, model="shared")
        out = []
        for batch in partitions(rng, events, max_batch):
            out.extend(service.ingest(batch))

        assert len(out) == len(events)
        base = row_major_baseline(pool, streams, out)
        ready = [f for f in out if f.ready]
        assert len(ready) == len(base.values)
        for f in out:
            assert f.model == "shared" and f.version == 0
            if not f.ready:
                assert not f.predicted and np.isnan(f.value)
        for i, f in enumerate(ready):
            assert f.predicted == bool(base.predicted[i])
            assert f.n_rules_used == int(base.n_rules_used[i])
            assert np.array_equal(
                [f.value], [base.values[i]], equal_nan=True
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fused_rich_path_with_policy(self, seed):
        """The rich (policy) scoring branch holds bitwise too —
        uncertainty fields included — and the decisions equal a fresh
        engine replaying the same forecasts one at a time."""
        from repro.service.policy import PolicyEngine, PolicySpec

        rng = np.random.default_rng(seed)
        pool = RuleSystem(random_pool(rng, 15, 4))
        series = {name: rng.uniform(-0.2, 1.2, size=25) for name in "xyz"}
        spec = PolicySpec(alert_above=0.5, hysteresis=0.1, min_matches=1)

        service = ForecastService()
        for name in series:
            service.bind_system(name, pool, model="shared")
        service.attach_policy(PolicyEngine(spec))
        out = []
        for i in range(25):
            out.extend(service.ingest(
                [(name, series[name][i]) for name in "xyz"]
            ))

        base = row_major_baseline(pool, series, out, rich=True)
        ready = [f for f in out if f.ready]
        assert len(ready) == len(base.values)
        for i, f in enumerate(ready):
            assert f.n_rules_used == int(base.n_rules_used[i])
            for field in (
                "value", "confidence", "dispersion", "interval_lo",
                "interval_hi",
            ):
                key = "values" if field == "value" else field
                assert np.array_equal(
                    [getattr(f, field)], [getattr(base, key)[i]],
                    equal_nan=True,
                )
        steps = {name: StreamingForecaster(pool, rich=True).extend(vals)
                 for name, vals in series.items()}
        for f in out:
            step = steps[f.stream][f.t]
            for field in ("value", "confidence", "dispersion"):
                assert np.array_equal(
                    [getattr(f, field)], [getattr(step, field)],
                    equal_nan=True,
                )
        assert [f.decision for f in out] == PolicyEngine(spec).evaluate(out)

    @given(
        st.integers(1, 5),        # d
        st.integers(1, 20),       # rules
        st.integers(0, 120),      # windows
        st.integers(0, 8),        # extra unused buffer columns
        st.booleans(),            # rich
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_predict_windowsT_equals_predict_windows(
        self, d, n_rules, n_windows, slack, rich, seed
    ):
        """The transposed entry vs the row-major entry, bitwise, with
        trailing garbage columns proving only ``k`` columns are read."""
        rng = np.random.default_rng(seed)
        compiled = CompiledRuleSystem(random_pool(rng, n_rules, d))
        windows = rng.uniform(-0.2, 1.2, size=(n_windows, d))
        stackT = np.full((d, n_windows + slack), np.nan)
        stackT[:, :n_windows] = windows.T
        row = compiled.predict_windows(windows, rich=rich)
        col = compiled.predict_windowsT(stackT, n_windows, rich=rich)
        assert np.array_equal(row.values, col.values, equal_nan=True)
        assert np.array_equal(row.predicted, col.predicted)
        assert np.array_equal(row.n_rules_used, col.n_rules_used)
        if rich:
            for field in (
                "confidence", "dispersion", "interval_lo", "interval_hi"
            ):
                assert np.array_equal(
                    getattr(row, field), getattr(col, field), equal_nan=True
                )

    def test_predict_windowsT_validates(self):
        rng = np.random.default_rng(0)
        compiled = CompiledRuleSystem(random_pool(rng, 5, 3))
        import pytest

        with pytest.raises(ValueError):
            compiled.predict_windowsT(np.zeros((4, 7)))       # wrong D
        with pytest.raises(ValueError):
            compiled.predict_windowsT(np.zeros((3, 7)), k=8)  # k > cap
        with pytest.raises(ValueError):
            compiled.predict_windowsT(np.zeros((3, 7)), k=-1)

    def test_adaptation_sees_lag_major_stacks(self):
        """An attached adaptation hook receives the same lag-major
        ``(d, cap)`` buffers the gateway scored, not a row-major copy."""
        rng = np.random.default_rng(3)
        pool = RuleSystem(random_pool(rng, 8, 3))
        seen = []

        class Probe:
            def on_batch(self, batch, results, ready, stacks):
                for key, members in ready.items():
                    seen.append(stacks[key].shape[0])

            def stats(self):
                return {}

        service = ForecastService()
        service.bind_system("s", pool, model="m")
        service.attach_adaptation(Probe())
        for v in rng.uniform(0, 1, size=10):
            service.ingest([("s", float(v))])
        assert seen and all(rows == 3 for rows in seen)
