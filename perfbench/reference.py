"""A fixed pure-Python reference kernel that measures the CPU's current speed.

On a shared machine the same code runs up to 60 % slower for
stretches of seconds to minutes, and process CPU time slows with it.  While
the worker times a call, a SpeedProbe also times this kernel every 0.1 s
and once before and after, and run.py scales the call's time by
REFERENCE_S / (the median kernel time seen).  The end-to-end times are then
seconds at a fixed reference speed: they move when widthlab's code gets
faster or slower, not when the machine does.

The kernel is shaped like the engine's inner loops (a subset-DP split scan
over list tables, then a set-based OR closure), because speed drops differ
between kinds of code: a kernel of dict stores tracked the engine's
slowdowns less closely.  It never changes, so parent and child commits are
scaled by the same yardstick.
"""

from __future__ import annotations

import signal
import time

_N = 9
_TABLE = [((s * 2654435761) >> 7) % 13 for s in range(1 << _N)]
_ROWS = [(i * 0x9E3779B1) & 0x1FF for i in range(1, 9)]

# Median kernel time on the machine the benchmark was defined on (see README).
REFERENCE_S = 0.0018


def _kernel() -> tuple[int, int]:
    size = 1 << _N
    g = [0] * size
    for s in range(1, size):
        if s & (s - 1) == 0:
            g[s] = _TABLE[s]
            continue
        low = s & -s
        rest = s ^ low
        best = 1 << 30
        sub = rest
        while True:
            s1 = sub | low
            s2 = s ^ s1
            if s2:
                a, b = g[s1], g[s2]
                m = a if a >= b else b
                if m < best:
                    best = m
            if not sub:
                break
            sub = (sub - 1) & rest
        g[s] = best if best >= _TABLE[s] else _TABLE[s]
    space = {0}
    for w in _ROWS:
        space |= {s | w for s in space}
    return g[size - 1], len(space)


def reference_time() -> float:
    """Fastest of three kernel runs, so a timer interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


class SpeedProbe:
    """Samples the CPU's speed during a timed call.

    On entry and exit it times the kernel (outside the caller's timed span);
    in between, SIGALRM runs the kernel every `interval` seconds (never when
    `interval` is 0).  `spent_s`
    is the time the in-call samples took, for the caller to subtract, and
    `kernel_s` is the median kernel time over all samples.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self.samples = [reference_time()]
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference_time())

    @property
    def kernel_s(self) -> float:
        # statistics.median would import modules widthlab imports, before the
        # set-up clock is read.
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
