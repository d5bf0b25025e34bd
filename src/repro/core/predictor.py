"""The rule-system predictor (§3.4).

The final solution is the union of all rules obtained across
executions.  For an unseen input pattern:

1. find the rules whose conditional part the pattern fits;
2. each matching rule produces an output (its hyperplane applied to the
   pattern, or its constant ``p_R``);
3. the system prediction is the *mean* of those outputs;
4. if no rule matches, the system abstains — the "percentage of
   prediction" is the fraction of patterns with at least one match.

Two implementations serve that contract:

* the **per-rule loop** (``predict(..., compiled=False)``) — one
  :func:`~repro.core.matching.match_mask` and one scatter-add per rule;
  simple, and the property-test oracle;
* the **compiled path** (default) — the pool packed once into stacked
  bound/coefficient arrays by
  :class:`~repro.core.compiled.CompiledRuleSystem` and scored with a
  fixed number of vectorized operations per batch.

Both are bitwise identical (see ``tests/property/
test_compiled_predictor.py``); the compiled pack is built lazily on
first use and cached on the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from .matching import match_mask
from .rule import Rule

__all__ = [
    "PredictionBatch",
    "RichPredictionBatch",
    "RuleSystem",
    "abstaining_batch",
    "rich_from_moments",
]


@dataclass(frozen=True)
class PredictionBatch:
    """Predictions for a batch of patterns.

    Attributes
    ----------
    values:
        Predicted values; ``NaN`` where the system abstains.
    predicted:
        Boolean mask — True where at least one rule matched.
    n_rules_used:
        Per-pattern count of contributing rules.
    """

    values: np.ndarray
    predicted: np.ndarray
    n_rules_used: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of patterns predicted (paper's percentage / 100)."""
        if self.predicted.size == 0:
            return 0.0
        return float(self.predicted.mean())


@dataclass(frozen=True)
class RichPredictionBatch(PredictionBatch):
    """A :class:`PredictionBatch` plus per-pattern uncertainty.

    The pool carries uncertainty for free: each prediction is the mean
    of the matching rules' outputs, so the spread of those outputs is a
    direct dispersion estimate and the match count a coverage signal.
    Rich batches surface both, plus two derived fields, without
    perturbing a single bit of the point values (the rich path is the
    same kernel with one extra ``bincount`` pass — see
    ``tests/property/test_uncertainty.py``).

    Attributes
    ----------
    dispersion:
        Population standard deviation of the matching rules' outputs
        (``sqrt(sum((out - mean)^2) / k)``).  Exactly ``0.0`` where one
        rule matches and — deliberately NaN-free — also ``0.0`` where
        the system abstains.
    interval_lo, interval_hi:
        ``value ∓/± dispersion`` — a one-sigma disagreement band, not a
        calibrated quantile.  ``NaN`` where the system abstains
        (mirroring ``values``).
    confidence:
        ``(k / (k + 1)) / (1 + dispersion)`` for ``k`` matching rules —
        a unitless score in ``(0, 1)`` that grows with agreement and
        match count, built from rational ops only so both scoring paths
        reproduce it bit for bit.  Exactly ``0.0`` where the system
        abstains.
    """

    dispersion: np.ndarray = None  # type: ignore[assignment]
    interval_lo: np.ndarray = None  # type: ignore[assignment]
    interval_hi: np.ndarray = None  # type: ignore[assignment]
    confidence: np.ndarray = None  # type: ignore[assignment]


def rich_from_moments(
    values: np.ndarray,
    predicted: np.ndarray,
    counts: np.ndarray,
    m2: np.ndarray,
) -> RichPredictionBatch:
    """Derive a :class:`RichPredictionBatch` from accumulated moments.

    ``m2`` is the per-pattern sum of squared deviations of matching rule
    outputs from the (already final) mean.  Both scoring paths — the
    per-rule oracle loop and the compiled kernels — accumulate their
    moments in the same order and then call *this one function* for the
    derived fields, so dispersion/interval/confidence are bitwise
    identical across paths by construction.
    """
    n = values.shape[0]
    dispersion = np.zeros(n, dtype=np.float64)
    matched = counts > 0
    if matched.any():
        dispersion[matched] = np.sqrt(m2[matched] / counts[matched])
    interval_lo = values - dispersion
    interval_hi = values + dispersion
    confidence = np.zeros(n, dtype=np.float64)
    if matched.any():
        k = counts[matched].astype(np.float64)
        confidence[matched] = (k / (k + 1.0)) / (1.0 + dispersion[matched])
    return RichPredictionBatch(
        values=values,
        predicted=predicted,
        n_rules_used=counts,
        dispersion=dispersion,
        interval_lo=interval_lo,
        interval_hi=interval_hi,
        confidence=confidence,
    )


def abstaining_batch(n: int, rich: bool = False) -> PredictionBatch:
    """``n`` abstentions: the result wherever no rule can match."""
    values = np.full(n, np.nan)
    predicted = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    if rich:
        return rich_from_moments(values, predicted, counts, np.zeros(n))
    return PredictionBatch(
        values=values, predicted=predicted, n_rules_used=counts
    )


class RuleSystem:
    """A pool of prediction rules acting as one forecaster.

    Parameters
    ----------
    rules:
        Evaluated rules (each needs a predicting part; unevaluated rules
        are rejected).
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules: List[Rule] = []
        for rule in rules:
            if not np.isfinite(rule.prediction) and rule.coeffs is None:
                raise ValueError(
                    "RuleSystem requires evaluated rules (run the engine "
                    "or evaluate_rule first); got one with no predicting part"
                )
            self.rules.append(rule)
        self._compiled = None  # lazy CompiledRuleSystem cache
        self._compiled_rules = None  # strong-ref snapshot of the compiled pool

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def n_lags(self) -> int:
        """Common arity ``D`` of the pooled rules."""
        if not self.rules:
            raise ValueError("empty rule system has no arity")
        return self.rules[0].n_lags

    # -- prediction ----------------------------------------------------------

    def compile(self):
        """The pool packed for batch scoring (built once, then cached).

        Returns a :class:`~repro.core.compiled.CompiledRuleSystem`.  The
        cache is keyed on the identity of every rule in the pool —
        checked against a strong-reference snapshot, so the comparison
        cannot be fooled by CPython id reuse after a rule is dropped
        and garbage-collected.  Replacing, adding or removing rules in
        ``self.rules`` therefore triggers recompilation on the next
        call.  (Mutating a rule *object* in place — editing its bounds
        or coefficients — is not detected; evolved rules are treated as
        immutable once evaluated.)
        """
        if not self.rules:
            raise ValueError("cannot compile an empty rule system")
        # Rule uses identity equality, so == on the lists compares
        # object identity element-wise; the snapshot keeps the compiled
        # rules alive, making the identity check sound.
        if self._compiled is None or self._compiled_rules != self.rules:
            from .compiled import CompiledRuleSystem

            self._compiled = CompiledRuleSystem(self.rules)
            self._compiled_rules = list(self.rules)
        return self._compiled

    def predict(
        self, patterns: np.ndarray, compiled: bool = True, rich: bool = False
    ) -> PredictionBatch:
        """Mean-of-matching-rules prediction for ``(n, D)`` patterns.

        ``compiled=True`` (default) scores through the cached
        :class:`~repro.core.compiled.CompiledRuleSystem`;
        ``compiled=False`` runs the per-rule reference loop.  The two
        are bitwise identical — the flag is an A/B escape hatch (CLI:
        ``--no-compiled``) and the oracle for property tests.

        ``rich=True`` returns a :class:`RichPredictionBatch` carrying
        per-pattern dispersion/interval/confidence on top of the exact
        same point values.  The reference implementation runs a second
        per-rule pass accumulating squared deviations from the final
        mean in ascending rule order — the oracle the compiled rich
        kernels are held bitwise equal to
        (``tests/property/test_uncertainty.py``).
        """
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        n = patterns.shape[0]
        if not self.rules:
            return abstaining_batch(n, rich)
        if patterns.shape[1] != self.n_lags:
            raise ValueError(
                f"patterns have {patterns.shape[1]} lags, rules expect "
                f"{self.n_lags}"
            )
        if compiled:
            return self.compile().predict(patterns, rich=rich)
        totals = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        for rule in self.rules:
            mask = match_mask(rule, patterns)
            if not mask.any():
                continue
            totals[mask] += rule.output(patterns[mask])
            counts[mask] += 1
        predicted = counts > 0
        values = np.full(n, np.nan)
        values[predicted] = totals[predicted] / counts[predicted]
        if rich:
            m2 = np.zeros(n, dtype=np.float64)
            for rule in self.rules:
                mask = match_mask(rule, patterns)
                if not mask.any():
                    continue
                dev = rule.output(patterns[mask]) - values[mask]
                m2[mask] += dev * dev
            return rich_from_moments(values, predicted, counts, m2)
        return PredictionBatch(values=values, predicted=predicted, n_rules_used=counts)

    def predict_one(
        self, pattern: np.ndarray, compiled: bool = True
    ) -> Optional[float]:
        """Single-pattern convenience; ``None`` when the system abstains."""
        if compiled and self.rules:
            return self.compile().predict_one(
                np.asarray(pattern, dtype=np.float64)
            )
        batch = self.predict(
            np.asarray(pattern, dtype=np.float64)[None, :], compiled=compiled
        )
        if not batch.predicted[0]:
            return None
        return float(batch.values[0])

    def coverage(self, patterns: np.ndarray, compiled: bool = True) -> float:
        """Fraction of ``patterns`` matched by at least one rule."""
        return self.predict(patterns, compiled=compiled).coverage

    # -- composition -----------------------------------------------------------

    def merged_with(self, other: "RuleSystem") -> "RuleSystem":
        """Union of two rule pools (multi-execution pooling, §3.4)."""
        return RuleSystem(list(self.rules) + list(other.rules))

    def filtered(
        self,
        max_error: Optional[float] = None,
        min_matches: int = 0,
    ) -> "RuleSystem":
        """Sub-pool with only rules meeting quality thresholds."""
        kept: List[Rule] = []
        for rule in self.rules:
            if max_error is not None and not (rule.error <= max_error):
                continue
            if rule.n_matched < min_matches:
                continue
            kept.append(rule)
        return RuleSystem(kept)

    def describe(self, limit: int = 10) -> str:
        """Multi-line human-readable summary of the pool."""
        lines = [f"RuleSystem with {len(self.rules)} rules"]
        for rule in self.rules[:limit]:
            lines.append("  " + rule.describe())
        if len(self.rules) > limit:
            lines.append(f"  … and {len(self.rules) - limit} more")
        return "\n".join(lines)
