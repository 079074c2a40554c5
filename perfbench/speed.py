"""The host's speed, read from a fixed computation written here.

The same work runs up to 1.8x slower on a shared host from one moment to
the next, and a phase can last longer than a run (README, *How this host
behaves*).  The benchmark therefore times a fixed computation, a *sample*,
between timed calls, and reports each call scaled to the reference speed:
``wall * REF_S / mean(sample before, sample after)``.  An operation made of
several calls is timed call by call, so the speed is read about every
second where the calls allow it.  The computation does not call adjustkit,
so the scaled time moves in proportion with anything the program does
faster or slower.
"""

from __future__ import annotations

import time

import numpy as np

# the time one sample takes at the reference speed: about what it takes on
# the 2-vCPU host of the README's figures in its faster phase
REF_S = 0.045
NP_ITERS = 1500
PY_ITERS = 300_000


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(400, 10))
        self._eye = np.eye(10)
        # (start, numpy seconds, Python seconds) of every sample
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> float:
        """Seconds of one pass: small products and solves in numpy, then a Python loop."""
        a, eye = self._a, self._eye
        t0 = time.perf_counter()
        for _ in range(NP_ITERS):
            np.linalg.solve(a.T @ a + eye, a[:10].T)
        t1 = time.perf_counter()
        acc = 0
        for k in range(PY_ITERS):
            acc += k * k % 7
        t2 = time.perf_counter()
        self.samples.append((t0, t1 - t0, t2 - t1))
        return t2 - t0

    def timed(self, *parts):
        """Call each zero-argument part in turn with a sample after it.

        The sample before the first part is the last one taken, if any, so
        back-to-back calls share it.  Returns the parts' results and, per
        part, (start, wall seconds, seconds at the reference speed).
        """
        results, calls = [], []
        before = self.samples[-1][1] + self.samples[-1][2] if self.samples else self.sample()
        for part in parts:
            t = time.perf_counter()
            results.append(part())
            wall = time.perf_counter() - t
            after = self.sample()
            calls.append((t, wall, wall * REF_S / ((before + after) / 2)))
            before = after
        return results, calls


def wall(calls) -> float:
    return sum(c[1] for c in calls)


def scaled(calls) -> float:
    return sum(c[2] for c in calls)
