"""Property tests pinning the matcher's regime boundaries.

The staged matcher in :mod:`repro.core.compiled` picks a kernel per
block: micro blocks (``n_block <= MICRO_BLOCK``) take the adaptive
dense-prefix walk with a priced one-shot verify
(``MICRO_DENSE_PREFIX`` / ``MICRO_VERIFY_BUDGET``), bulk blocks take
the priced first pass that goes sparse or dense around
``DENSE_SWITCH``.  Every one of those regime choices is a pure
performance decision — the bitwise contract says no output bit may
depend on which kernel ran.  These tests straddle each boundary on
purpose: batch sizes either side of ``MICRO_BLOCK``, candidate
densities either side of ``DENSE_SWITCH`` (including forcing both
branches on the *same* block), and verify budgets clamped to both
extremes — always against the per-rule oracle
(``RuleSystem.predict(compiled=False)``) and, pair-for-pair where the
pair lists are reachable, against the brute-force match matrix of
:func:`~repro.core.matching.population_match_matrix_stacked`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledRuleSystem
from repro.core.matching import population_match_matrix_stacked
from repro.core.predictor import RuleSystem

from test_compiled_predictor import (
    assert_batches_bitwise_equal,
    random_pool,
)


def _pairs(compiled, patterns):
    """The (rule, pattern) pair lists for ``patterns`` as one block."""
    blkT = np.ascontiguousarray(patterns.T)
    return compiled._match_pairs(blkT, patterns.shape[0])


def _brute_force_pairs(rules, patterns):
    """Every matching (rule, pattern) pair, rule-major by construction."""
    return np.nonzero(population_match_matrix_stacked(rules, patterns))


def assert_pairs_equivalent(a, b):
    """Same pair *set*, both in the rule-major order the sums need.

    The bitwise contract constrains pair order only as far as the
    sequential ``bincount`` reductions see it: for any one pattern the
    matching rules must arrive in ascending rule order, which
    rule-major emission guarantees.  Within one rule the pattern order
    is free (each pair lands in a different accumulator slot), so
    kernels are compared on the canonically sorted pair set plus the
    rule-major invariant — not on their raw emission order.
    """
    (r_a, i_a), (r_b, i_b) = a, b
    assert np.all(np.diff(r_a) >= 0), "pairs not rule-major"
    assert np.all(np.diff(r_b) >= 0), "pairs not rule-major"
    assert np.array_equal(
        np.c_[r_a, i_a][np.lexsort((i_a, r_a))],
        np.c_[r_b, i_b][np.lexsort((i_b, r_b))],
    )


class TestMicroBlockBoundary:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batch_sizes_straddle_micro_block(self, seed):
        """n = MICRO_BLOCK-1 / MICRO_BLOCK / MICRO_BLOCK+1 stay exact.

        At 256 the block runs the micro kernel, at 257 the bulk
        kernel — the oracle must not be able to tell which.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 30, 5)
        system = RuleSystem(rules)
        edge = CompiledRuleSystem.MICRO_BLOCK
        for n in (edge - 1, edge, edge + 1, 2 * edge, 2 * edge + 1):
            patterns = rng.uniform(-0.1, 1.1, size=(n, 5))
            assert_batches_bitwise_equal(
                system.predict(patterns, compiled=False),
                CompiledRuleSystem(rules).predict(patterns),
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_mixed_bulk_and_micro_blocks_in_one_batch(self, seed):
        """A batch whose block loop emits both kernel flavours.

        ``block_size=300`` over 556 patterns yields a 300-wide bulk
        block followed by a 256-wide micro block; the accumulators are
        shared, so any regime-dependent drift would corrupt the sums.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 20, 4)
        system = RuleSystem(rules)
        compiled = CompiledRuleSystem(rules, block_size=300)
        patterns = rng.uniform(-0.1, 1.1, size=(556, 4))
        assert_batches_bitwise_equal(
            system.predict(patterns, compiled=False),
            compiled.predict(patterns),
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pair_lists_match_brute_force(self, seed):
        """The micro and bulk kernels emit the brute-force pair *lists*.

        Stronger than output parity: the staged kernels must emit the
        same pair set, rule-major, as ``np.nonzero`` of the full match
        matrix, at widths on both sides of the micro boundary.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 25, 4)
        staged = CompiledRuleSystem(rules)
        edge = CompiledRuleSystem.MICRO_BLOCK
        for n in (1, 3, 17, edge - 1, edge, edge + 1):
            patterns = rng.uniform(-0.1, 1.1, size=(n, 4))
            assert_pairs_equivalent(
                _pairs(staged, patterns), _brute_force_pairs(rules, patterns)
            )


class TestDenseSparseCrossover:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_forced_sparse_and_dense_branches_agree(self, seed):
        """Force *both* bulk branches on the same block: same pairs.

        ``DENSE_SWITCH`` is read off the instance, so clamping it to
        -1 (every block counts as dense) and 2 (every block counts as
        sparse) runs the dense-prefix walk and the sparse
        extract-and-verify path over identical inputs.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 20, 5, p_wildcard=0.5, width=0.6)
        patterns = rng.uniform(-0.1, 1.1, size=(400, 5))  # bulk width
        dense = CompiledRuleSystem(rules)
        dense.DENSE_SWITCH = -1.0
        sparse = CompiledRuleSystem(rules)
        sparse.DENSE_SWITCH = 2.0
        assert_pairs_equivalent(
            _pairs(dense, patterns), _pairs(sparse, patterns)
        )
        assert_batches_bitwise_equal(
            RuleSystem(rules).predict(patterns, compiled=False),
            dense.predict(patterns),
        )

    def test_density_sweep_actually_crosses_the_switch(self):
        """A width sweep visits both sides of ``DENSE_SWITCH``.

        Deterministic, so the test fails loudly if a constant change
        ever stops the sweep from exercising both branches (rather
        than silently testing one branch twice).
        """
        rng = np.random.default_rng(7)
        patterns = rng.uniform(0, 1, size=(400, 4))
        fractions = []
        for width, p_wc in ((0.08, 0.0), (0.3, 0.2), (0.9, 0.8)):
            rules = random_pool(
                np.random.default_rng(7), 25, 4,
                p_wildcard=p_wc, width=width,
            )
            compiled = CompiledRuleSystem(rules)
            blkT = np.ascontiguousarray(patterns.T)
            j0 = compiled._lag_order[0]
            first = (blkT[j0] >= compiled._loT[j0][:, None]) & (
                blkT[j0] <= compiled._hiT[j0][:, None]
            )
            fractions.append(
                np.count_nonzero(first) / (compiled.n_rules * 400)
            )
            assert_batches_bitwise_equal(
                RuleSystem(rules).predict(patterns, compiled=False),
                compiled.predict(patterns),
            )
        switch = CompiledRuleSystem.DENSE_SWITCH
        assert min(fractions) <= switch, (
            f"sweep never reached the sparse side: {fractions}"
        )
        assert max(fractions) > switch, (
            f"sweep never reached the dense side: {fractions}"
        )


class TestMicroVerifyBudget:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_budget_extremes_agree_pairwise(self, seed):
        """Both micro exit paths emit the brute-force pair lists exactly.

        Budget 0 can never afford an early exit, so the walk goes
        dense through every lag and the one-shot verify sees an empty
        lag set; an effectively infinite budget exits right at
        ``MICRO_DENSE_PREFIX`` and verifies the maximal tail.  Either
        way the pair set must match the full match matrix's.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 25, 6, p_wildcard=0.4, width=0.5)
        patterns = rng.uniform(-0.1, 1.1, size=(200, 6))  # micro width
        brute_pairs = _brute_force_pairs(rules, patterns)
        for budget in (0, 1 << 60):
            micro = CompiledRuleSystem(rules)
            micro.MICRO_VERIFY_BUDGET = budget
            assert_pairs_equivalent(_pairs(micro, patterns), brute_pairs)
            assert_batches_bitwise_equal(
                RuleSystem(rules).predict(patterns, compiled=False),
                micro.predict(patterns),
            )

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_prefix_depths_agree_with_oracle(self, seed, prefix):
        """Every forced dense-prefix depth keeps the bitwise contract.

        Sweeping ``MICRO_DENSE_PREFIX`` from 1 to the full lag count
        moves the dense-walk/one-shot-verify split across every
        position, including the degenerate all-dense and
        nearly-all-verify ends.
        """
        rng = np.random.default_rng(seed)
        rules = random_pool(rng, 20, 6)
        system = RuleSystem(rules)
        patterns = rng.uniform(-0.1, 1.1, size=(97, 6))
        compiled = CompiledRuleSystem(rules)
        compiled.MICRO_DENSE_PREFIX = prefix
        compiled.MICRO_VERIFY_BUDGET = 1 << 60  # exit as soon as allowed
        assert_batches_bitwise_equal(
            system.predict(patterns, compiled=False),
            compiled.predict(patterns),
        )
