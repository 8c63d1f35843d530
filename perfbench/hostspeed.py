"""Host-speed sampling for the benchmark worker.

The speed of a shared host swings by up to 2x, both within a second and
for tens of seconds at a time, so raw times of one workload spread too
widely between runs to catch a regression.  To take that swing out, the
worker samples the host's speed while it runs: a SIGALRM handler runs a
small fixed kernel every ``PERIOD_S`` seconds, in the middle of whatever
the program is doing, and records how long the kernel took.

The kernel is complex Horner evaluation and a Newton step on mpmath's
low-level mpf tuples at 160 bits, the arithmetic the numeric layers of
carousel spend their time in.  No change to carousel can alter it.  It
only reads module constants and keeps its state in locals, so it is safe
to run between any two bytecodes of the program.

An interval's speed factor is the mean kernel time of the samples taken
inside it over ``NOMINAL_S``; an interval with fewer than two samples
inside also uses the last sample before it and the first after it.  Time
spent in samples is taken out of the interval's length.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from mpmath.libmp import from_rational, mpf_add, mpf_div, mpf_mul, mpf_sub, round_nearest

PERIOD_S = 0.05
KERNEL_STEPS = 60
NOMINAL_S = 0.0019  # one kernel run on a 2-core x86 host in its fast phase
PREC = 160
COEFFS = tuple(from_rational(k + 1, k + 7, PREC, round_nearest) for k in range(6))
START = (
    from_rational(3, 11, PREC, round_nearest),
    from_rational(5, 13, PREC, round_nearest),
)


def kernel():
    """Fixed work: Horner evaluation of a sextic at z, then a Newton-like step."""
    zr, zi = START
    for _ in range(KERNEL_STEPS):
        pr, pi = COEFFS[0], COEFFS[1]
        for c in COEFFS[2:]:
            pr, pi = (
                mpf_add(mpf_sub(mpf_mul(pr, zr, PREC), mpf_mul(pi, zi, PREC), PREC), c, PREC),
                mpf_add(mpf_mul(pr, zi, PREC), mpf_mul(pi, zr, PREC), PREC),
            )
        d = mpf_add(mpf_mul(pr, pr, PREC), mpf_mul(pi, pi, PREC), PREC)
        zr = mpf_sub(zr, mpf_div(pr, d, PREC, round_nearest), PREC)
        zi = mpf_add(zi, mpf_div(pi, d, PREC, round_nearest), PREC)
    return zr, zi


class HostSpeed:
    """Samples of the kernel's run time, taken on a timer while started."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        """Take a sample now, then one every PERIOD_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop the timer, then take a last sample to close open intervals."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def outside(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in samples."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return t1 - t0 - sum(self.durations[lo:hi])

    def measure(self, t0: float, t1: float) -> tuple:
        """(seconds of [t0, t1] outside samples, speed factor of [t0, t1])."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        used = list(inside)
        if len(used) < 2:
            used += self.durations[max(lo - 1, 0) : lo] + self.durations[hi : hi + 1]
        return t1 - t0 - sum(inside), statistics.mean(used) / NOMINAL_S
