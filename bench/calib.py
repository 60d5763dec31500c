"""A fixed reference computation that gauges how fast the host runs right now.

On a shared virtual machine the CPU time of a fixed piece of Python work
swings by a factor of two within seconds, with the load other guests put on
the host (caches, memory bandwidth, clock).  The benchmark runs `probe()`
every fraction of a second inside each measured process (`Clock`), and
scales the program's CPU time between two probes by REFERENCE_S over their
mean: the scaled figures are what the work would have cost at the speed the
host had when REFERENCE_S was fixed.  The probe uses none of the program's
code, so a change to the program moves the scaled times as it moves the raw
ones.

The probe is the same kind of work as the program's: exact `Fraction`
matrix products, products of sparse forms held as dicts keyed by index
tuples, and integer arithmetic.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# CPU seconds of one probe on the reference machine (a 2-core VM), about
# its median there
REFERENCE_S = 0.005

_N = 9
_A = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(_N)] for i in range(_N)]
_B = [[Fraction((2 * i + j) % 5 - 2, 1 + (i + 2 * j) % 3) for j in range(_N)] for i in range(_N)]
_F = {(i, j): Fraction(i - j, 1 + i + j) for i in range(7) for j in range(i + 1, 7)}
_G = {(k,): Fraction(k + 1, 2 + k % 3) for k in range(7)}


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols]
            for row in a]


def _form_mul(f, g):
    out = {}
    for ka, ca in f.items():
        for kb, cb in g.items():
            if set(ka) & set(kb):
                continue
            merged = ka + kb
            inversions = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
                             if merged[i] > merged[j])
            key = tuple(sorted(merged))
            c = out.get(key, Fraction(0)) + (-1) ** inversions * ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def _work():
    m = _mat_mul(_mat_mul(_A, _B), _A)
    w = _form_mul(_F, _G)
    acc = 1
    for v in w.values():
        acc = acc * v.denominator + v.numerator
    return m[0][0], len(w), acc % 1000003


_EXPECTED = _work()


def probe():
    """CPU seconds of one reference computation (its result is checked).

    The garbage collector is off while it runs: the probe makes no cycles,
    and a collection would cost in proportion to the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        got = _work()
        elapsed = time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()
    if got != _EXPECTED:
        raise RuntimeError("reference computation gave another result")
    return elapsed


class Clock:
    """CPU time of this thread, scaled to the reference speed stretch by stretch.

    The host's speed swings by a factor of two within seconds, so one scale
    for a whole run does not fit: `sample()` is called every fraction of a
    second, and the work done between two samples counts at REFERENCE_S over
    the mean probe time of the two.  `scaled` sums the scaled stretches and
    `raw` the unscaled ones; the probes themselves are in neither.
    """

    def __init__(self, start=None):
        """With `start` (a thread time), the work since then counts as the first stretch."""
        self.samples = []        # probe seconds of each sample
        self.factors = []        # scale of each stretch that ended at a sample
        self.scaled = self.raw = self.probe_s = 0.0
        self.mark = start        # thread time at the end of the last sample

    def sample(self):
        """Time the host's speed; scales the work done since the last sample."""
        t = time.thread_time()
        times = [probe() for _ in range(3)]     # the first warms the caches
        p = statistics.median(times[1:])
        if self.mark is not None:
            factor = REFERENCE_S / statistics.mean((self.samples[-1:] or [p]) + [p])
            self.factors.append(factor)
            self.scaled += (t - self.mark) * factor
            self.raw += t - self.mark
        self.samples.append(p)
        self.probe_s += sum(times)
        self.mark = time.thread_time()

    def speed(self):
        """Reference seconds per CPU second at the last sample."""
        return REFERENCE_S / self.samples[-1]
