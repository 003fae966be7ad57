"""Host-speed reference samples interleaved with the ops.

On a shared host the same op runs up to twice as slow for stretches of
seconds to minutes, and CPU time slows with wall time, so medians within one
run cannot remove it.  ``Pace`` times a fixed kernel every ``EVERY_S``
seconds between ops.  The kernel mixes the three kinds of work the ops do,
in about equal parts: small Hermitian eigenproblems in a Python loop (uep),
pure-interpreter integer arithmetic (exact Toeplitz and binomial
coefficients) and array arithmetic on a grid (Bernstein bases); one kind
alone tracked the ops' slowdowns less well.  An op's
normalized time is its wall time scaled by ``NOMINAL_S`` over the median of
the kernel samples taken around it: the seconds it would
have taken with the kernel at its nominal speed.  The kernel is the
benchmark's own code, so a change to ``hyperlab`` moves the op times and
not the reference.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

NOMINAL_S = 0.006    # fixed scale: about the kernel's median time on a 2-core Xeon VM
EVERY_S = 0.25
WINDOW_S = 1.0       # samples this close to an op set its speed


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._M = A + A.conj().T
        self._x = np.linspace(0.0, 1.0, 1001)[None, :]
        self._k = np.arange(120)[:, None]
        self.at = []     # end time of each sample
        self.took = []   # duration of each sample

    def sample(self) -> None:
        M, x, k = self._M, self._x, self._k
        t0 = perf_counter()
        for _ in range(150):
            np.linalg.eigvalsh(M)
        acc = 0
        for i in range(25000):
            acc += i * i
        x ** k * (1.0 - x) ** (120 - k)
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time around [t0, t1]: the samples
        within WINDOW_S of it, and at least the last one before and the first
        one after.  The median keeps one interrupted sample from skewing it."""
        before = max(bisect.bisect_right(self.at, t0) - 1, 0)
        after = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        lo = min(bisect.bisect_left(self.at, t0 - WINDOW_S), before)
        hi = max(bisect.bisect_right(self.at, t1 + WINDOW_S), after + 1)
        return NOMINAL_S / float(np.median(self.took[lo:hi]))

    def speed(self) -> float:
        """Median host speed over the run, 1.0 = nominal."""
        return NOMINAL_S / float(np.median(self.took))
