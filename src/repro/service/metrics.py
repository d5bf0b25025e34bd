"""Prometheus-style metrics: counters, gauges, latency histograms.

The observability half of the network front-end
(:mod:`repro.service.server`): every served event updates a handful of
:class:`Counter`/:class:`Gauge`/:class:`Histogram` instances held in a
:class:`MetricsRegistry`, and ``GET /metrics`` renders the registry in
the Prometheus **text exposition format** (version 0.0.4) so any
off-the-shelf scraper can ingest it — no client library dependency,
the encoder is ~100 lines of stdlib Python.

Design constraints, in order:

* **hot-path cheap** — ``Counter.inc`` is one dict lookup plus a float
  add; ``Histogram.observe`` is one :func:`bisect.bisect_left` over a
  fixed bucket ladder.  No locks: the server is single-event-loop by
  design, and plain CPython dict/float ops need no extra guard there.
* **fixed log-spaced buckets** — latency spans five orders of
  magnitude (µs batching hits to ms-scale stalls), so the default
  ladder (:func:`log_buckets`) places a constant number of buckets per
  decade instead of Prometheus' linear defaults; percentile estimates
  then carry a bounded *relative* error everywhere on the ladder.
* **correct exposition** — label escaping, ``le`` buckets cumulative
  and monotone, ``+Inf`` equal to ``_count``, help/type comments once
  per metric family (``tests/unit/test_metrics.py`` pins all of this,
  including a golden snapshot).

Percentiles (:meth:`Histogram.percentile`) are bucket estimates: the
value is linearly interpolated inside the first bucket whose
cumulative count reaches the requested quantile, exactly how
Prometheus' ``histogram_quantile`` computes it server-side.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_help",
    "escape_label_value",
    "format_sample",
    "format_value",
    "log_buckets",
]

def log_buckets(
    lo: float, hi: float, per_decade: int = 5
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds from ``lo`` to ``hi``.

    Returns ``per_decade`` bounds per power of ten, inclusive of both
    endpoints, rounded to 6 significant digits so the exposition
    output (and the golden test snapshot) is platform-stable.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("log_buckets needs 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(round(math.log10(hi / lo) * per_decade))
    bounds = [
        float(f"{lo * 10 ** (i / per_decade):.6g}") for i in range(n + 1)
    ]
    if bounds[-1] < hi:
        bounds.append(float(f"{hi:.6g}"))
    return tuple(bounds)


#: Default latency ladder: 100 µs … 10 s, 5 buckets per decade.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = log_buckets(
    1e-4, 10.0, per_decade=5
)


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` comment: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """One sample value: integers without a trailing ``.0``, else repr.

    ``+Inf``/``-Inf``/``NaN`` use the exposition-format spellings.
    """
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_sample(
    name: str, labels: Sequence[Tuple[str, str]], value: float
) -> str:
    """One exposition line: ``name{k="v",...} value``."""
    if labels:
        body = ",".join(
            f'{k}="{escape_label_value(v)}"' for k, v in labels
        )
        return f"{name}{{{body}}} {format_value(value)}"
    return f"{name} {format_value(value)}"


class _Metric:
    """Shared identity (name, help, label names) of one metric family."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def _pairs(self, key: Tuple[str, ...]) -> List[Tuple[str, str]]:
        return list(zip(self.label_names, key))

    def render(self) -> List[str]:
        """Exposition lines for this family (header + samples)."""
        raise NotImplementedError

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonically increasing counter, optionally labelled.

    ``inc`` only accepts non-negative amounts — a counter that ever
    decreases breaks every ``rate()`` a dashboard computes over it, so
    the type enforces monotonicity instead of documenting it.
    """

    kind = "counter"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels: str) -> None:
        """Mirror an authoritative running total into the series.

        For totals another object already counts (the gateway, the
        policy engine, the adaptation manager), read at scrape time.
        A total below the series' current value is refused — the
        series keeps its high-water mark — because the source can
        shrink without the events un-happening: a sharded aggregate
        drops a dead worker's share, a re-attached hook restarts at 0.
        """
        key = self._key(labels)
        if key not in self._values or total > self._values[key]:
            self._values[key] = float(total)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0.0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def render(self) -> List[str]:
        """Header plus one sample per labelled series, label-sorted."""
        lines = self._header()
        for key in sorted(self._values):
            lines.append(
                format_sample(self.name, self._pairs(key), self._values[key])
            )
        return lines


class Gauge(_Metric):
    """A value that can go up and down (queue depths, active conns)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value``."""
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0.0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def clear(self) -> None:
        """Drop every labelled series.

        For gauges rebuilt from authoritative state at scrape time
        (the gateway mirrors in ``render_metrics``): without a clear,
        a series that falls out of this scrape's selection — a stream
        that left the top-K, an evicted stream — would keep exposing
        its last value forever.
        """
        self._values.clear()

    def render(self) -> List[str]:
        """Header plus one sample per labelled series, label-sorted."""
        lines = self._header()
        for key in sorted(self._values):
            lines.append(
                format_sample(self.name, self._pairs(key), self._values[key])
            )
        return lines


class _HistogramSeries:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket, NOT cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A fixed-bucket histogram over non-negative observations.

    Parameters
    ----------
    buckets:
        Strictly increasing finite upper bounds; the implicit ``+Inf``
        bucket is always appended.  Defaults to the log-spaced latency
        ladder (100 µs – 10 s, 5 buckets/decade).
    top_k:
        Exposition-time cardinality cap for labelled histograms.  When
        set, :meth:`render` emits only the ``top_k`` series with the
        most observations plus one ``other`` aggregate merging the
        rest (bucket counts are additive, so the merge is exact) —
        10k+ streams then cost ``top_k + 1`` series per scrape, not
        10k.  Observation-side state is untouched: the cap is a view,
        and a series that climbs into the top-K later exposes its full
        history.  ``None`` (default) renders every series.
    """

    kind = "histogram"

    #: Label value of the merged aggregate series under ``top_k``.
    OTHER_LABEL = "other"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
        top_k: Optional[int] = None,
    ) -> None:
        super().__init__(name, help, label_names)
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1 (or None)")
        self.top_k = top_k
        bounds = tuple(
            float(b)
            for b in (DEFAULT_LATENCY_BUCKETS if buckets is None else buckets)
        )
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ValueError(
                "buckets must be strictly increasing finite bounds"
            )
        self.buckets = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into its bucket (``+Inf`` overflow)."""
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                len(self.buckets) + 1
            )
        v = float(value)
        series.counts[bisect_left(self.buckets, v)] += 1
        series.sum += v
        series.count += 1

    def count(self, **labels: str) -> int:
        """Total observations for the labelled series."""
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def cumulative(self, **labels: str) -> List[int]:
        """Cumulative counts per bucket, ``+Inf`` last (== count)."""
        series = self._series.get(self._key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        out, total = [], 0
        for c in series.counts:
            total += c
            out.append(total)
        return out

    def percentile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from buckets.

        Linear interpolation inside the first bucket whose cumulative
        count reaches ``q * count`` (Prometheus'
        ``histogram_quantile`` rule); observations in the overflow
        bucket clamp to the highest finite bound.  ``NaN`` when the
        series has no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return float("nan")
        rank = q * series.count
        total = 0
        for i, c in enumerate(series.counts[:-1]):
            if c == 0:
                continue
            if total + c >= rank:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                return lo + (hi - lo) * (rank - total) / c
            total += c
        return self.buckets[-1]

    def _capped_series(self) -> Dict[Tuple[str, ...], _HistogramSeries]:
        """The series to expose: all, or top-K by count + ``other``.

        Top-K is by observation count (traffic), ties broken by label
        so the selection is deterministic.  The remainder merges into
        one series labelled :attr:`OTHER_LABEL` on every axis —
        per-bucket counts, sums and totals add exactly, so the
        aggregate is what one histogram over those streams would have
        recorded.  A real series already labelled ``other`` merges
        into the aggregate rather than colliding with it.
        """
        if (
            self.top_k is None
            or not self.label_names
            or len(self._series) <= self.top_k
        ):
            return self._series
        ranked = sorted(
            self._series, key=lambda k: (-self._series[k].count, k)
        )
        kept = {k: self._series[k] for k in sorted(ranked[: self.top_k])}
        other = _HistogramSeries(len(self.buckets) + 1)
        for key in ranked[self.top_k:]:
            series = self._series[key]
            for i, c in enumerate(series.counts):
                other.counts[i] += c
            other.sum += series.sum
            other.count += series.count
        other_key = tuple(self.OTHER_LABEL for _ in self.label_names)
        prior = kept.pop(other_key, None)
        if prior is not None:  # a stream literally named "other"
            for i, c in enumerate(prior.counts):
                other.counts[i] += c
            other.sum += prior.sum
            other.count += prior.count
        kept[other_key] = other
        return kept

    def render(self) -> List[str]:
        """Header plus cumulative ``_bucket``/``_sum``/``_count`` lines.

        With :attr:`top_k` set, only the busiest ``top_k`` series plus
        the merged ``other`` aggregate appear
        (:meth:`_capped_series`).
        """
        lines = self._header()
        to_render = self._capped_series()
        for key in sorted(to_render):
            series = to_render[key]
            pairs = self._pairs(key)
            total = 0
            for bound, c in zip(self.buckets, series.counts):
                total += c
                lines.append(format_sample(
                    f"{self.name}_bucket",
                    pairs + [("le", format_value(bound))],
                    total,
                ))
            lines.append(format_sample(
                f"{self.name}_bucket", pairs + [("le", "+Inf")], series.count
            ))
            lines.append(
                format_sample(f"{self.name}_sum", pairs, series.sum)
            )
            lines.append(
                format_sample(f"{self.name}_count", pairs, series.count)
            )
        return lines


class MetricsRegistry:
    """An ordered collection of metric families with one text renderer.

    ``counter``/``gauge``/``histogram`` create **or fetch** the named
    family — callers on the hot path keep the returned object, but
    idempotent creation means wiring code never has to thread metric
    handles around.  Re-requesting a name with a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, label_names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> Counter:
        """Create or fetch a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> Gauge:
        """Create or fetch a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
        top_k: Optional[int] = None,
    ) -> Histogram:
        """Create or fetch a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, label_names,
            buckets=buckets, top_k=top_k,
        )

    def render(self) -> str:
        """The full registry in Prometheus text exposition format.

        Families appear in registration order (stable across renders —
        scrape diffs stay readable), each preceded by its ``# HELP`` /
        ``# TYPE`` pair, with a trailing newline as the format requires.
        """
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
