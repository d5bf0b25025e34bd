"""In-memory span tracer that wraps ``repro`` functions at layer boundaries.

Nothing under ``src/`` knows about it: :meth:`Tracer.wrap` replaces an
attribute (a module-level function the caller looks up at call time, or
a method on a class) with a wrapper that records one span per call and
puts the original back on :meth:`Tracer.restore`.

A span is ``(name, start_ns, end_ns, parent, batch)``: ``parent`` is the
index of the span that was open when this one started (``-1`` at top
level) and ``batch`` is the benchmark's current batch id (a generation,
an ``ingest`` call, ...).  A layer's self time is its spans' duration
minus the part covered by their child spans; everything runs on one
thread, so child spans never overlap and "covered" is a plain sum.

Functions called once per event are never wrapped with spans; their
work is counted per batch by the callers of :meth:`add`.  Wrappers count
the work each call did with :meth:`count`, which only counts inside the
benchmark's phases (top-level ``bench.*`` spans), like :meth:`totals`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]


class Tracer:
    """Records spans and counters; see the module docstring."""

    def __init__(self, counting: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.batch = 0
        #: Whether :meth:`count` counts; true inside a ``bench.*`` phase,
        #: or always for a tracer made with ``counting=True``.
        self.counting = counting
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump counter ``name``."""
        self.counts[name] += amount

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump counter ``name`` if the benchmark is in a phase."""
        if self.counting:
            self.counts[name] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(tracer, args, result)`` runs after each call (inside
        the span) to count the work the call did.
        """
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            batch = tracer.batch
            start = clock()
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(tracer, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, batch)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        counting = self.counting
        if parent < 0 and name.startswith("bench."):
            self.counting = True
        batch = self.batch
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.counting = counting
            self.spans[index] = (name, start, end, parent, batch)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------------

    def _in_phases(self) -> List[bool]:
        """Which spans belong to a top-level ``bench.*`` span (the
        benchmark's set-up and measuring phases; oracle checks run
        outside them).  Without such spans, every span counts."""
        spans = self.spans
        root = list(range(len(spans)))
        for index, span in enumerate(spans):
            if span is not None and span[3] >= 0:
                root[index] = root[span[3]]  # parents open before children
        if not any(s is not None and s[3] < 0 and s[0].startswith("bench.")
                   for s in spans):
            return [s is not None for s in spans]
        return [s is not None and spans[root[i]] is not None
                and spans[root[i]][0].startswith("bench.")
                for i, s in enumerate(spans)]

    def wall_s(self) -> float:
        """Summed duration of the top-level ``bench.*`` spans."""
        return sum(s[2] - s[1] for s in self.spans
                   if s is not None and s[3] < 0
                   and s[0].startswith("bench.")) * 1e-9

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``max_s``,
        over the spans of the benchmark's phases."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, keep in enumerate(self._in_phases()):
            if not keep:
                continue
            name, start, end, _parent, _batch = self.spans[index]
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            )
            duration = (end - start) * 1e-9
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_ns[index] * 1e-9
            entry["max_s"] = max(entry["max_s"], duration)
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, the layer being a span name's first part."""
        out: Dict[str, float] = defaultdict(float)
        for name, entry in self.totals().items():
            out[name.split(".", 1)[0]] += entry["self_s"]
        return dict(out)

    def write(self, path: Path) -> None:
        """Write spans (one JSON object per line) and counters to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, batch = span
                fh.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "batch": batch,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
