"""Timing against a frozen reference on a machine whose speed flickers.

On a shared host the same code runs up to about 1.8 times slower from one
second to the next, and whole stretches of tens of seconds can be slow.
Two things take that out of a timing:

* every job runs twice back to back, once on the package and once on
  ``reference/conifold_ref`` (a verbatim copy of ``src/conifold`` at the
  seed commit), so that both sides see the same stretch of machine time;
* ``SpeedProbe`` samples the machine's speed while the jobs run: a
  SIGALRM every ``INTERVAL_S`` times a fixed pure-Python loop.  A job's
  busy time is its wall time minus the probes that interrupted it, and
  its speed is the mean probe duration during it.

``relative_time`` fits, by least squares over every timed sample of a
run, how strongly the jobs' time follows the probe
(``log busy = job + side + alpha * log probe``), divides each sample by
``probe ** alpha``, and returns the job list's time on the package
relative to the reference.  At the seed commit the two sides are the same
code, so the ratio reads 1 up to the remaining noise.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.01
LOOPS = 2000  # about 0.2 ms of interpreter work per probe
ALPHA_RANGE = (0.0, 3.0)


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedProbe:
    """While entered, times ``LOOPS`` iterations of a fixed loop every
    ``INTERVAL_S`` seconds, from a SIGALRM handler."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _spin(LOOPS)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, t0: float, t1: float) -> tuple:
        """(busy seconds, probe duration) of a call that ran from ``t0`` to
        ``t1``.  A call too short to be interrupted takes the duration of
        the nearest probe."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if inside:
            return t1 - t0 - sum(inside), statistics.mean(inside)
        near = [i for i in (lo - 1, hi) if 0 <= i < len(self.starts)]
        if not near:
            return t1 - t0, 1.0
        nearest = min(near, key=lambda i: min(abs(self.starts[i] - t0),
                                              abs(self.starts[i] - t1)))
        return t1 - t0, self.durations[nearest]


def fit_alpha(samples) -> float:
    """Exponent of the probe duration in the time of a job: the least
    squares fit of ``log busy = job + side + alpha * log probe`` over
    ``samples`` of ``(job, side, busy, probe)``, clamped to ALPHA_RANGE."""
    groups: dict = {}
    for job, side, busy, probe in samples:
        groups.setdefault(job, []).append((math.log(busy), side, math.log(probe)))
    s11 = s22 = s12 = s1y = s2y = 0.0
    for points in groups.values():
        if len(points) < 2:
            continue
        my, m1, m2 = (statistics.fmean(col) for col in zip(*points))
        for y, x1, x2 in points:
            y, x1, x2 = y - my, x1 - m1, x2 - m2
            s11 += x1 * x1
            s22 += x2 * x2
            s12 += x1 * x2
            s1y += x1 * y
            s2y += x2 * y
    det = s11 * s22 - s12 * s12
    if det <= 0:
        return ALPHA_RANGE[0]
    alpha = (s11 * s2y - s12 * s1y) / det
    return min(max(alpha, ALPHA_RANGE[0]), ALPHA_RANGE[1])


def normalised(samples, alpha: float, njobs: int) -> tuple:
    """Per-job sums of ``busy / probe ** alpha`` on the package (side 0)
    and on the reference (side 1)."""
    sums = ([0.0] * njobs, [0.0] * njobs)
    for job, side, busy, probe in samples:
        sums[side][job] += busy / probe ** alpha
    return sums


def relative_time(samples, njobs: int) -> tuple:
    """(ratio, alpha, per-job normalised sums): the job list's time on the
    package relative to the reference.  Each job's speed-corrected ratio
    is weighted by the job's share of the reference's busy time, so a job
    counts as much as it weighs in the job list."""
    alpha = fit_alpha(samples)
    prog, ref = normalised(samples, alpha, njobs)
    busy_ref = [0.0] * njobs
    for job, side, busy, _probe in samples:
        if side == 1:
            busy_ref[job] += busy
    total = sum(busy_ref)
    ratio = sum(w / total * p / r for w, p, r in zip(busy_ref, prog, ref))
    return ratio, alpha, (prog, ref)
