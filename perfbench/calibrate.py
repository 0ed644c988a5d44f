"""Host-speed calibration: a fixed pure-Python kernel timed while the
program runs.

On a shared host the speed of one core wanders by up to 2x, over less
than a second as well as over minutes, in CPU time as much as in wall
time, so raw timings of the same calls spread by 20-50% between runs.
A ``Clock`` therefore times a kernel every ``INTERVAL_S`` seconds, from
a SIGALRM handler that runs in the middle of the program's calls as
well as between them, and cuts the pass into segments between two
samples.  Time spent in a segment counts the kernel's reference time
over the mean of the two samples that bound it; kernel time counts
nothing.  A call's reference time is what it would have taken on a
host where the kernel takes its reference time.

A slow host slows interpreter-bound code more than large-integer
arithmetic (1.75x against 1.5x in one measurement), so there are two
kernels, and each workload names the one that does what its hot loops
do: ``kernel`` (products of small integer polynomials reduced mod a
cyclotomic polynomial, tuple and dict traffic) or ``fraction_kernel``
(``Fraction`` products and inverses, as in ``Cyc.invert``).  Neither
calls ``tvcalc``, and each does the same work on every commit, so a
program that gets slower still reads slower by the same share.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.04           # program time between two kernel samples
_ROUNDS = 400
_MODULUS = (1, -1, 1, -1, 1, -1)      # Phi_14 without its leading x^6
_FACTOR = (3, -7, 11, 0, 5, -2)


def kernel(rounds: int = _ROUNDS) -> int:
    """Repeated products by a fixed element of Z[x]/Phi_14: small
    integers, interpreter-bound."""
    deg = len(_MODULUS)
    acc = (1,) + (0,) * (deg - 1)
    table = {}
    for n in range(rounds):
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(_FACTOR):
                    if y:
                        conv[i + j] += x * y
        for k in range(len(conv) - 1, deg - 1, -1):
            c = conv[k]
            if c:
                conv[k] = 0
                for i in range(deg):
                    conv[k - deg + i] -= c * _MODULUS[i]
        acc = tuple(v % 1000003 for v in conv[:deg])
        table[(n % 997, acc[0])] = acc
    return len(table)


def fraction_kernel(rounds: int = 80) -> Fraction:
    """Products, sums and inverses of Fractions whose terms grow to some
    8,600 bits, as in the Euclid steps of ``Cyc.invert``: large-integer
    arithmetic and gcds."""
    x = Fraction(3 ** 60 + 1, 7 ** 30 + 2)
    acc = Fraction(1)
    for i in range(rounds):
        acc = 1 / (acc * x + Fraction(i + 1, 2 ** 61 - 1) + 1)
    return acc


# each kernel's time on the reference host (2-core Intel Xeon VM at
# 2.0 GHz) in its fast state; reference times are seconds at that speed
KERNELS = {"int": (kernel, 0.003), "fraction": (fraction_kernel, 0.0025)}


class Clock:
    """Segments of program time between kernel samples, each with its
    reference-speed factor.

    With ``timer`` the samples come from SIGALRM every ``INTERVAL_S``;
    without it (traced passes, whose span times a handler would
    inflate) only from ``between_calls`` once ``INTERVAL_S`` has passed
    since the last sample.  ``stop`` takes the last sample; then
    ``reference_seconds`` converts any interval inside the clock's life.
    """

    def __init__(self, timer: bool = True, kernel: str = "int"):
        self.timer = timer
        self.kernel, self.reference_s = KERNELS[kernel]
        self.starts, self.ends, self.factors = [], [], []
        self.samples = []
        self.kernel()               # warm-up, not used
        self._sample()
        if timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _sample(self) -> None:
        """Close the open segment with a kernel sample and open the next
        one where the kernel ends."""
        now = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - now
        if self.samples:
            self.starts.append(self.mark)
            self.ends.append(now)
            self.factors.append(self.reference_s * 2
                                / (self.samples[-1] + seconds))
        self.samples.append(seconds)
        self.mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)   # one shot, no overlap

    def between_calls(self) -> None:
        if not self.timer and time.perf_counter() - self.mark >= INTERVAL_S:
            self._sample()

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference time of the program time in [start, end]."""
        total = 0.0
        k = max(bisect.bisect_right(self.starts, start) - 1, 0)
        while k < len(self.starts) and self.starts[k] < end:
            overlap = min(end, self.ends[k]) - max(start, self.starts[k])
            if overlap > 0:
                total += overlap * self.factors[k]
            k += 1
        return total
