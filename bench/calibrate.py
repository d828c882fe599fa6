"""Machine-speed calibration for the benchmark's times.

The reference machine's speed drifts by itself: a fixed pure-Python loop runs
up to 1.5 times faster or slower for tens of seconds at a time, process
start-up moves with it, and over ten runs that alone spreads every timing by
more than the 0.25 a bound may be.  A fixed unit of interpreter work, timed in
the same thread between operations, follows the drift; `factor` turns a run's
unit times into the scale that brings its measured times to the reference
speed.  Over ten runs this cut the spread of ops_per_s from 0.17 to 0.05
(ranks) and from 0.13 to 0.03 (realize).

The unit calls no sigcalc code and runs with the cycle collector off, so a
change to the program cannot speed it up or slow it down; a change that
slows the whole interpreter (a global trace hook, say) would slow it too and
would not show.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Mean CPU seconds of one unit on the reference machine (README.md).
REF_S = 1.44e-3
# Operation CPU seconds between two samples in a worker.
EVERY_S = 0.05


def _unit():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    d = {}
    for i in range(1500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    return s


def sample() -> float:
    """CPU seconds of one unit in this thread."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _unit()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """The scale that brings times measured alongside `samples` to the
    reference speed."""
    return REF_S / statistics.mean(samples)
