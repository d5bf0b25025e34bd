"""Property tests for ``CompiledRuleSystem(storage="float32")``.

The opt-in float32 pack trades the bitwise contract for half the
memory, with two documented guarantees (see ``CompiledRuleSystem``):

* **superset matching** — bounds are rounded *outward* (lo toward
  ``-inf``, hi toward ``+inf``), so every pair matched under float64
  is still matched under float32, including patterns sitting exactly
  on a float64 box boundary;
* **bounded value error** — coefficients round to nearest but the
  arithmetic stays float64, so a float32 compile is *bitwise* equal to
  a float64 compile of the cast-back pool, and each rule output is
  within ``(D+1)`` float32 ulps (~``(D+1) * 6e-8`` relative to the
  accumulated term magnitude) of the float64 value whenever the match
  sets agree.

Both halves are pinned here against the per-rule oracle, plus the
mechanical claims: the pack really halves, and ``export_blocks`` /
``from_blocks`` round-trips the storage mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import (
    CompiledRuleSystem,
    _round_bounds_down,
    _round_bounds_up,
)
from repro.core.predictor import RuleSystem
from repro.core.rule import Rule

from test_compiled_predictor import random_pool


def cast_back_pool(compiled32):
    """Rebuild the pool a float32 pack *actually* encodes, in float64.

    Bounds come from the outward-rounded arrays, coefficients from the
    nearest-rounded block — upcast back to float64.  A float64 compile
    of this pool must be bitwise identical to the float32 compile,
    because the kernels upcast float32 parameters into float64
    arithmetic (never the reverse).
    """
    lo = compiled32.lo.astype(np.float64)
    hi = compiled32.hi.astype(np.float64)
    coeffs = compiled32.coeffs.astype(np.float64)
    rules = []
    for i in range(compiled32.n_rules):
        rule = Rule.from_box(
            np.where(np.isfinite(lo[i]), lo[i], 0.0),
            np.where(np.isfinite(hi[i]), hi[i], 1.0),
            prediction=float(coeffs[i, -1]),
        )
        rule.wildcard = ~np.isfinite(lo[i]) & ~np.isfinite(hi[i])
        rule.error = 1.0
        if compiled32.is_linear[i]:
            rule.coeffs = coeffs[i].copy()
        rules.append(rule)
    return rules


def oracle_match_matrix(lo, hi, patterns):
    """(R, n) boolean match matrix straight from the bounds arrays."""
    lo64 = lo.astype(np.float64)
    hi64 = hi.astype(np.float64)
    inside = (patterns[None, :, :] >= lo64[:, None, :]) & (
        patterns[None, :, :] <= hi64[:, None, :]
    )
    return inside.all(axis=2)


class TestFloat32Rounding:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_outward_rounding_never_shrinks_a_box(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=n)
        x[rng.random(n) < 0.1] = np.inf
        x[rng.random(n) < 0.1] = -np.inf
        down = _round_bounds_down(x)
        up = _round_bounds_up(x)
        assert np.all(down.astype(np.float64) <= x)
        assert np.all(up.astype(np.float64) >= x)
        assert down.dtype == np.float32 and up.dtype == np.float32

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rounding_is_tight(self, seed):
        """Outward rounding moves by at most one float32 ulp."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-100, 100, size=50)
        down = _round_bounds_down(x).astype(np.float64)
        up = _round_bounds_up(x).astype(np.float64)
        nearest = x.astype(np.float32).astype(np.float64)
        ulp = np.abs(
            np.nextafter(x.astype(np.float32), np.float32(np.inf)).astype(
                np.float64
            )
            - nearest
        )
        assert np.all(x - down <= 2 * ulp)
        assert np.all(up - x <= 2 * ulp)


class TestFloat32Matching:
    @given(
        st.integers(1, 6),       # d
        st.integers(1, 30),      # rules
        st.integers(1, 120),     # patterns
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_match_superset(self, d, n_rules, n_patterns, seed):
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, n_rules, d)
        c64 = CompiledRuleSystem(rules)
        c32 = CompiledRuleSystem(rules, storage="float32")
        patterns = rng.uniform(-0.2, 1.2, size=(n_patterns, d))
        m64 = oracle_match_matrix(c64.lo, c64.hi, patterns)
        m32 = oracle_match_matrix(c32.lo, c32.hi, patterns)
        # Every float64 match survives the float32 pack.
        assert np.all(m32 >= m64)
        # And the kernel agrees with the widened-bounds oracle.
        p32 = c32.predict(patterns)
        assert np.array_equal(p32.n_rules_used, m32.sum(axis=0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_boundary_patterns_stay_matched(self, seed):
        """Patterns exactly on float64 box edges cannot be dropped."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        rules = random_pool(rng, 12, d, p_wildcard=0.1)
        c32 = CompiledRuleSystem(rules, storage="float32")
        c64 = CompiledRuleSystem(rules)
        edges = []
        for bounds in (c64.lo, c64.hi):
            for i in range(c64.n_rules):
                if np.isfinite(bounds[i]).all():
                    edges.append(bounds[i])
        if not edges:
            return
        patterns = np.asarray(edges)
        m64 = oracle_match_matrix(c64.lo, c64.hi, patterns)
        p32 = c32.predict(patterns)
        assert np.all(p32.n_rules_used >= m64.sum(axis=0))

    @given(
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(0, 150),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_float32_is_bitwise_the_cast_back_pool(
        self, d, n_rules, n_patterns, seed
    ):
        """The sharpest form of the contract: a float32 compile is not
        "approximately" anything — it is *exactly* a float64 compile of
        the rounded parameters, against the per-rule oracle too."""
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, n_rules, d)
        c32 = CompiledRuleSystem(rules, storage="float32")
        back = cast_back_pool(c32)
        patterns = rng.uniform(-0.2, 1.2, size=(n_patterns, d))
        got = c32.predict(patterns)
        ref = CompiledRuleSystem(back).predict(patterns)
        oracle = RuleSystem(back).predict(patterns, compiled=False)
        for want in (ref, oracle):
            assert np.array_equal(got.values, want.values, equal_nan=True)
            assert np.array_equal(got.predicted, want.predicted)
            assert np.array_equal(got.n_rules_used, want.n_rules_used)


class TestFloat32Values:
    @given(
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(1, 120),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_value_tolerance_where_match_sets_agree(
        self, d, n_rules, n_patterns, seed
    ):
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, n_rules, d)
        c64 = CompiledRuleSystem(rules)
        c32 = CompiledRuleSystem(rules, storage="float32")
        patterns = rng.uniform(-0.2, 1.2, size=(n_patterns, d))
        p64 = c64.predict(patterns)
        p32 = c32.predict(patterns)
        m64 = oracle_match_matrix(c64.lo, c64.hi, patterns)
        m32 = oracle_match_matrix(c32.lo, c32.hi, patterns)
        same = (m64 == m32).all(axis=0) & p64.predicted
        if not same.any():
            return
        # Per-pattern magnitude bound: the mean of per-rule term sums
        # |intercept| + sum |x_j a_j| over the matched rules.
        mags = np.abs(c64.coeffs[:, -1])[:, None] + np.abs(
            c64.coeffs[:, :d]
        ) @ np.abs(patterns.T)
        counts = m64.sum(axis=0)
        bound = np.where(
            counts > 0, (mags * m64).sum(axis=0) / np.maximum(counts, 1), 0.0
        )
        tol = (d + 1) * 6e-8 * np.maximum(bound, 1e-12) + 1e-300
        err = np.abs(p32.values - p64.values)
        assert np.all(err[same] <= tol[same])


class TestFloat32Pack:
    def test_memory_halves(self):
        rng = np.random.default_rng(3)
        rules = random_pool(rng, 32, 8)
        c64 = CompiledRuleSystem(rules)
        c32 = CompiledRuleSystem(rules, storage="float32")
        for name in ("lo", "hi", "coeffs", "_loT", "_hiT", "_weightsT",
                     "_intercept"):
            a64 = getattr(c64, name)
            a32 = getattr(c32, name)
            assert a32.nbytes * 2 == a64.nbytes, name

    def test_rejects_unknown_storage(self):
        rng = np.random.default_rng(4)
        rules = random_pool(rng, 3, 2)
        try:
            CompiledRuleSystem(rules, storage="float16")
        except ValueError:
            pass
        else:
            raise AssertionError("storage='float16' should be rejected")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_export_roundtrip_preserves_storage(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        rules = random_pool(rng, 12, d)
        c32 = CompiledRuleSystem(rules, storage="float32")
        clone = CompiledRuleSystem.from_blocks(c32.export_blocks())
        assert clone.storage == "float32"
        assert clone.lo.dtype == np.float32
        patterns = rng.uniform(0, 1, size=(40, d))
        a = c32.predict(patterns)
        b = clone.predict(patterns)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.n_rules_used, b.n_rules_used)
