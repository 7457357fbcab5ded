"""Timing, tracing and output-check plumbing shared by the workloads.

Nothing here knows a workload.  A workload runs its operations through an
`OpRecorder`, which times each call, runs the output check outside the
timed region and counts failures; `Tracer` keeps spans in memory and is a
no-op when disabled; `Expect` compares an output with the same output of
an earlier round (exact) and with the stored reference (tolerance);
`SpeedGauge` measures how fast this process runs while the work runs.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import time
import traceback
from collections import defaultdict

import numpy as np

perf = time.perf_counter


class Tracer:
    """In-memory spans: name, start, end, parent span id and run id."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = perf()

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    def self_times_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"] - child[s["id"]]) * 1e3
        return dict(sorted(out.items()))


class SpeedGauge:
    """A fixed kernel, timed in this process between ops.

    On a shared host the speed of this process drifts by up to ~50% over
    tens of seconds, and its CPU time drifts with wall time, so run medians
    taken minutes apart disagree.  The kernel allocates nothing and its
    buffers stay in this core's L2, so its time follows the machine and not
    the workload's state.  A time multiplied by factor() (NOMINAL_S over
    the median kernel time beside it) is stated in reference seconds.
    Over five seeded runs per workload this cut the spread (IQR / median)
    of round_s from 0.08 to 0.04 (ab-small), 0.32 to 0.12 (big-grid) and
    0.10 to 0.03 (loss-api).
    """

    NOMINAL_S = 0.005   # typical sample on a 2-vCPU Xeon VM (median of 3 runs)

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples: list[float] = []
        self._a = np.random.default_rng(0).random(1 << 15)   # 256 KB
        self._b = np.empty_like(self._a)
        self._last = -math.inf

    def _kernel(self) -> float:
        a, b = self._a, self._b
        for _ in range(40):
            np.exp(a, out=b)
            np.multiply(b, a, out=b)
            b.sum()
        s = 0.0
        for i in range(20_000):
            s += i * 0.5
        return s

    def sample(self) -> None:
        """One sample: the median of three kernel runs."""
        runs = []
        for _ in range(3):
            t0 = perf()
            self._kernel()
            runs.append(perf() - t0)
        self._last = perf()
        self.samples.append(median(runs))

    def maybe_sample(self) -> None:
        if perf() - self._last >= self.every_s:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """NOMINAL_S over the median of the samples taken from mark `since` on."""
        return self.NOMINAL_S / median(self.samples[since:])

    def timed(self, fn) -> tuple[float, float]:
        """fn's wall time and its factor from samples taken just before and after."""
        self.sample()
        t0 = perf()
        fn()
        dt = perf() - t0
        self.sample()
        return dt, 2 * self.NOMINAL_S / (self.samples[-2] + self.samples[-1])


class OpRecorder:
    """Closed-loop operation runner: one call at a time, each one checked."""

    def __init__(self, tracer: Tracer, gauge: SpeedGauge):
        self.tracer = tracer
        self.gauge = gauge
        self.times: dict[str, list[float]] = defaultdict(list)  # reference s
        self.busy_s = 0.0      # total time inside ops, in reference seconds
        self.busy_raw_s = 0.0  # the same in wall seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, fn, check=None):
        """Time fn(); then run check(result), which returns a problem or None.

        The time is stated in reference seconds using the gauge samples just
        before and just after the call (the process can move between CPUs of
        different speed from one op to the next).  An op that raises or fails
        its check counts once in `failed`.
        """
        self.attempted += 1
        self.gauge.maybe_sample()
        before = self.gauge.samples[-1]
        try:
            with self.tracer.span(name):
                t0 = perf()
                out = fn()
                dt = perf() - t0
        except Exception:  # a failing op is counted and the run goes on
            self.fail(name, traceback.format_exc(limit=3))
            return None
        self.gauge.maybe_sample()
        after = self.gauge.samples[-1]
        factor = 2 * self.gauge.NOMINAL_S / (before + after)
        self.times[name].append(dt * factor)
        self.busy_s += dt * factor
        self.busy_raw_s += dt
        problem = check(out) if check is not None else None
        if problem:
            self.fail(name, problem)
        return out

    def fail(self, name: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {problem}")


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b)
                and all(_close(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0) or a == b
    return a == b


class Expect:
    """Output checks against earlier rounds (exact) and references (rtol)."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.seen: dict = {}

    def __call__(self, key: str, value, rtol: float = 0.0) -> str | None:
        if key in self.seen and self.seen[key] != value:
            return f"{key}={value!r} differs from earlier round {self.seen[key]!r}"
        self.seen.setdefault(key, value)
        if self.reference is None:
            return None
        if key not in self.reference:
            return f"{key} has no stored reference"
        if not _close(value, self.reference[key], rtol):
            return f"{key}={value!r}, reference {self.reference[key]!r} (rtol {rtol})"
        return None

    def all(self, items) -> str | None:
        """Run several (key, value, rtol) checks; report the first problem."""
        for item in items:
            problem = self(*item)
            if problem:
                return problem
        return None


def repeat(fn, min_s: float = 0.2, max_n: int = 25):
    """Call fn until min_s has passed (at least once); durations and last result."""
    times = []
    out = None
    while not times or (sum(times) < min_s and len(times) < max_n):
        t0 = perf()
        out = fn()
        times.append(perf() - t0)
    return times, out


def median(xs) -> float:
    return statistics.median(xs)


def percentile_with_tail(xs, q: int, tail: int = 10) -> float | None:
    """The q-th percentile, or None unless at least `tail` samples lie beyond it."""
    if len(xs) * (100 - q) / 100.0 < tail:
        return None
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(run_round, seconds: float, min_rounds: int = 1):
    """Run whole rounds until `seconds` have passed (and min_rounds are done).

    run_round(i) returns the round's measured time.  Returns those times
    and the wall length of the timed phase.
    """
    measured: list[float] = []
    start = perf()
    while len(measured) < min_rounds or perf() - start < seconds:
        measured.append(run_round(len(measured)))
    return measured, perf() - start
