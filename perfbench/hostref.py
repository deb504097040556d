"""Host-speed reference: a fixed loop timed next to every timed call.

On a shared VM the speed of the same code drifts by a third within a
minute: a fixed pure-Python loop took 27 ms a pass for 25 s and then 19 ms
a pass, and a numpy loop moved with it.  Medians inside one run cannot
remove a drift that lasts longer than the run.  So each timed call is
paired with this loop, run in the same process just before and just after
it (a set-up probe runs it once, right after its set-up), and the gated
times are

    time * NOMINAL_S / (reference time)

that is, seconds on a host where the reference loop takes ``NOMINAL_S``.
The loop does not touch ``cfcg``, so a change to the program moves the
corrected time by the same factor as the raw one.  The raw times are
printed next to them.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's time on a 2-core x86 VM without contention
NOMINAL_S = 0.02

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((100, 100)) / 10.0
_V = _RNG.standard_normal(1000)


def reference_s():
    """Wall time of one pass of the reference loop: interpreter work and
    small numpy calls, the mix of the program's solver loops."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80000):
        acc += (i % 7) * 0.5
    x = _M[0]
    for _ in range(1600):
        x = np.tanh(_M @ x)
        acc += float(np.dot(_V[:100], x))
    for _ in range(200):
        acc += float(np.exp(-np.abs(_V)).sum())
    return time.perf_counter() - t0
