"""Pieces shared by the workloads: the correctness gate, the reference
clock, the pass loop and the statistics the metrics are reported with."""
from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


#: iterations of ``reference_work``.
REFERENCE_N = 10_000
#: seconds ``reference_work`` takes on the host the figures are scaled to.
REFERENCE_S = 0.0012
#: runs of ``reference_work`` per probe; a probe is the fastest of them,
#: so one interrupt does not make the host look slow.
PROBE_RUNS = 3
#: every probe of this run, in seconds, for the host record.
probes: list[float] = []


def reference_work() -> int:
    """A fixed piece of pure-Python work (arithmetic and dict stores)."""
    s = 0
    d = {}
    for i in range(REFERENCE_N):
        s += i * i % 7
        d[i & 255] = s
    return s


def probe() -> float:
    """Seconds ``reference_work`` takes right now."""
    runs = []
    for _ in range(PROBE_RUNS):
        t = time.perf_counter()
        reference_work()
        runs.append(time.perf_counter() - t)
    probes.append(min(runs))
    return probes[-1]


class Timed:
    """Times a block in reference seconds: ``with Timed() as t: ...``, then
    ``t.s``.

    The host is shared, and other tenants' load makes everything on it run
    up to about 1.4x slower for stretches of seconds to minutes, with no
    steal time to show for it. So the block is bracketed by two probes, and
    its wall time is scaled by ``REFERENCE_S`` over their mean: ``t.s`` is
    what the block would take on a host where ``reference_work`` takes
    ``REFERENCE_S``. A change to the program moves ``t.s``; a change in the
    host's speed moves the probes as well and largely cancels. The probes
    run outside the block and outside any span.

    Only pure-Python work is timed this way. Scaling by one speed for the
    whole run, from the median of its probes, does not work: on five seeds
    of ``sim`` it left the spread of ``wall_s`` across runs at 0.14, where
    scaling each block gave 0.03.
    """

    def __enter__(self) -> "Timed":
        self._before = probe()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        raw = time.perf_counter() - self._t0
        self.s = raw * 2 * REFERENCE_S / (self._before + probe())
        return False


class Gate:
    """Counts checked operations; a failed check is reported on stderr and
    counted against ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"[gate] FAIL {message}", file=sys.stderr)
        return ok


@dataclass
class Measured:
    """What one workload run produced, before units are attached."""

    e2e: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: sample count behind each figure.
    samples: dict[str, int] = field(default_factory=dict)
    host: dict[str, object] = field(default_factory=dict)
    #: per-pass values of counts that must repeat exactly for one seed.
    deterministic: dict[str, list] = field(default_factory=dict)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100 * len(s)) - 1))]


def trace_overhead(untraced: list[dict], traced: list[dict]) -> float:
    """Median traced pass wall time minus median untraced pass wall time."""
    return median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in untraced])


def run_measured(
    one_pass: Callable[[], dict], seconds: float, trace: bool, tracer
) -> tuple[list[dict], list[dict]]:
    """Run passes for about ``seconds``: another pass starts if at least half
    of one, going by the last, would still fit. Untraced runs measure untraced passes only.
    Traced runs alternate an untraced and a traced pass, at least one of
    each, so both see the same warm-up and the difference of their wall
    times is the tracing overhead.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        want_trace = trace and len(traced) < len(untraced)
        tracer.pass_id += 1
        tracer.enabled = want_trace
        start = time.perf_counter()
        try:
            p = one_pass()
        finally:
            tracer.enabled = False
        end = time.perf_counter()
        p["pass_id"] = tracer.pass_id
        (traced if want_trace else untraced).append(p)
        balanced = not trace or len(traced) == len(untraced)
        if balanced and end + (end - start) / 2 > deadline:
            return untraced, traced
