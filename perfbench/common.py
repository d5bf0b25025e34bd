"""Shared pieces of the workloads: the outcome record, statistics, paths."""

from __future__ import annotations

import functools
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for registries, pool snapshots, spans and run records.
#: Listed in ``.gitignore``.
WORK = ROOT / ".perfbench"

#: The benchmark's declaration: workloads and metric names with units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: ``end_to_end`` metric name -> unit.  What "operation" means differs per
#: workload; NOTES.md maps each to the workload's own names.  Each workload
#: also prints its p99 latency, which is not gated: on a shared virtual
#: machine it moves with the host's stalls.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: The tail every workload reports and needs at least 10 samples beyond.
TAIL_Q = 0.99
#: About the median :func:`reference_s` on the machine NOTES.md's figures
#: come from.  Gated times and rates are scaled to a host that runs the
#: reference task in this time.
REFERENCE_NOMINAL_S = 0.05


@functools.lru_cache(maxsize=1)
def _reference_inputs() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference task's fixed arrays (made on first use, so the TCP
    server child, which never runs the task, does not hold them)."""
    rng = np.random.default_rng(20_240)
    x = rng.random((4096, 24))
    lo = rng.random((240, 24)) - 0.2
    return x, lo, lo + 0.4


def reference_s() -> float:
    """Seconds a fixed task takes on this host right now.

    The task uses no ``repro`` code, so no change to the program moves
    it.  It is NumPy work like the workloads': small array calls in a
    Python loop, then a few passes over larger arrays.  NOTES.md says
    how well it tracks each workload, and which other tasks were tried.
    """
    x, lo, hi = _reference_inputs()
    t0 = time.perf_counter()
    small = x[:8, None, :]
    acc = 0
    for _ in range(150):
        hit = ((small >= lo[None]) & (small <= hi[None])).all(axis=2)
        acc += int(hit.sum(axis=1)[0]) + np.flatnonzero(hit).size
        acc += int((x[:8] @ lo[:24].T).argmax())
    for _ in range(3):
        acc += int(np.count_nonzero((x[:, None, :8] >= lo[None, :40, :8]).all(axis=2)))
        acc += int(np.argsort(x[:, 0])[0])
    return time.perf_counter() - t0


#: About the median :func:`block_reference_s` on that machine at the speed
#: where :func:`reference_s` takes :data:`REFERENCE_NOMINAL_S`.
BLOCK_REFERENCE_NOMINAL_S = 0.0019
#: Events per pass of the block reference task.
_BLOCK_EVENTS = 64


@functools.lru_cache(maxsize=1)
def _block_inputs():
    """The block reference task's fixed inputs."""
    rng = np.random.default_rng(20_241)
    lo = rng.random((240, 24)) - 0.2
    coef = rng.normal(size=(240, 25))
    keys = [f"k{i}" for i in range(_BLOCK_EVENTS)]
    windows = {k: rng.random(23).tolist() for k in keys}
    events = list(zip(keys, rng.random(_BLOCK_EVENTS).tolist()))
    return lo, lo + 0.4, coef, windows, events


class _Record:
    __slots__ = ("key", "step", "value")

    def __init__(self, key, step, value):
        self.key = key
        self.step = step
        self.value = value

    def project(self, factor):
        return self.value * factor + self.step


def block_reference_s() -> float:
    """Seconds a short serving-like task takes on this host right now.

    About 2 ms of the two kinds of work a gateway call does, in about
    equal time, with no ``repro`` code.  NumPy: per event a dict lookup
    and a window built from a list, then a lag-major stack, a staged box
    match, a gather of matched pairs and ``bincount`` sums.  Python: per
    event a small object, a method call, a tuple and a dict store.  The
    host's stalls slow the first less and the second more than they slow
    ``ingest``; their sum tracks it (NOTES.md).  Stateless, so every call
    does the same work.  :class:`BlockScaler` times it between short
    blocks of a workload's operations.
    """
    lo, hi, coef, windows, events = _block_inputs()
    t0 = time.perf_counter()
    for _ in range(2):
        rows = [windows[key] + [value] for key, value in events]
        stack = np.ascontiguousarray(np.asarray(rows).T)
        hit = np.ones((lo.shape[0], len(rows)), dtype=bool)
        for lag in range(0, stack.shape[0], 3):
            hit &= (stack[lag][None, :] >= lo[:, lag, None]) & \
                   (stack[lag][None, :] <= hi[:, lag, None])
        r_idx, i_idx = np.nonzero(hit)
        out = np.einsum("ij,ij->i", coef[r_idx, :-1], stack[:, i_idx].T) + coef[r_idx, -1]
        totals = np.bincount(i_idx, weights=out, minlength=len(rows))
        counts = np.bincount(i_idx, minlength=len(rows))
        np.where(counts > 0, totals / np.maximum(counts, 1), np.nan).tolist()
    latest = {}
    for step in range(28):
        for key, value in events:
            record = _Record(key, step, value)
            latest[key] = (record, record.project(1.5))
    return time.perf_counter() - t0


class BlockScaler:
    """Scales per-operation times to the nominal host, block by block.

    The host's speed moves by up to 1.7x within half a second, faster
    than samples of :func:`reference_s` between long stretches follow.
    So the workload passes each operation's raw time to :meth:`add`;
    after every ``every`` operations, outside the timed region, the
    short :func:`block_reference_s` is timed, and each operation of the
    block is divided by the block's slowness: the mean of the reference
    times before and after it over :data:`BLOCK_REFERENCE_NOMINAL_S`.
    """

    def __init__(self, every: int):
        self.every = every
        #: Operation times as measured, and scaled to the nominal host.
        self.raw: List[float] = []
        self.scaled: List[float] = []
        #: Each closed block's slowness.
        self.slowness: List[float] = []
        self._block: List[float] = []
        self._before = 0.0

    def start(self) -> None:
        """Time the reference before the first block of a stretch."""
        self._before = block_reference_s()

    def add(self, seconds: float) -> None:
        """Record one operation's raw time."""
        self.raw.append(seconds)
        self._block.append(seconds)
        if len(self._block) == self.every:
            self.close()

    def close(self) -> None:
        """End the current block (call at the end of every stretch)."""
        if not self._block:
            return
        after = block_reference_s()
        slowness = (self._before + after) / (2.0 * BLOCK_REFERENCE_NOMINAL_S)
        self.slowness.append(slowness)
        self.scaled.extend(t / slowness for t in self._block)
        self._block.clear()
        self._before = after


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: ``END_TO_END`` name -> value (untraced run only).
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: The workload's own metrics: (name, value, unit, sample count).
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: One line per oracle mismatch or other failure.
    problems: List[str] = field(default_factory=list)
    #: Every :func:`reference_s` taken during the run.
    speed_samples: List[float] = field(default_factory=list)
    #: Each set-up's seconds as measured, and scaled to the nominal host.
    setup_raw: List[float] = field(default_factory=list)
    setup_scaled: List[float] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        """Record ``count`` failed operations with a reason."""
        if count:
            self.failed += count
            self.problems.append(message)

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        """Append one of the workload's own metrics to the report."""
        self.report.append((name, float(value), unit, int(n)))

    def sample_speed(self) -> None:
        """Time the reference task once (outside any timed region)."""
        self.speed_samples.append(reference_s())

    def add_setup(self, seconds: float) -> None:
        """Record one set-up's time, scaled by a reference timed right after.

        Set-ups are short, and the host's speed moves within seconds, so
        each is paired with its own sample rather than the run's median.
        """
        self.sample_speed()
        self.setup_raw.append(seconds)
        self.setup_scaled.append(
            seconds * REFERENCE_NOMINAL_S / self.speed_samples[-1])

    def set_end_to_end(self, peak_rss_mb: float, ops_per_s: float,
                       latency_p50_ms: float, scale_rate: bool = True,
                       scale_latency: bool = True) -> None:
        """Set the gated metrics from measurements.

        Times and rates set by the CPU's speed are scaled to the nominal
        host.  ``setup_s`` is the median of the paired set-ups
        (:meth:`add_setup`).  ``ops_per_s`` is multiplied, and
        ``latency_p50_ms`` divided, by ``slowness``, the run's median
        reference time over :data:`REFERENCE_NOMINAL_S`, when
        ``scale_rate`` and ``scale_latency`` say so: not when a
        :class:`BlockScaler` has scaled them already, nor when a timer
        sets them.
        """
        slowness = median(self.speed_samples) / REFERENCE_NOMINAL_S
        self.add("host_slowness", slowness, "ratio", len(self.speed_samples))
        self.add("setup_s", median(self.setup_raw), "s", len(self.setup_raw))
        self.end_to_end = {
            "setup_s": median(self.setup_scaled),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": ops_per_s * (slowness if scale_rate else 1.0),
            "latency_p50_ms": latency_p50_ms / (slowness if scale_latency else 1.0),
        }


def phase(tracer, name: str):
    """A ``bench.<name>`` span when tracing, else a no-op context."""
    return tracer.span(f"bench.{name}") if tracer is not None else nullcontext()


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_tail(samples: Sequence[float], outcome: Outcome, what: str) -> None:
    """Fail closed unless at least 10 samples lie beyond :data:`TAIL_Q`."""
    beyond = len(samples) - math.ceil(TAIL_Q * len(samples))
    if beyond < 10:
        outcome.problems.append(
            f"{what}: only {beyond} of {len(samples)} samples beyond "
            f"p{TAIL_Q * 100:g}"
        )


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return kb / 1024.0 if sys.platform != "darwin" else kb / 2**20


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORK` (remove it with ``shutil``)."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    """Delete a directory made by :func:`scratch_dir`."""
    shutil.rmtree(path, ignore_errors=True)
