"""The reference computation that measures the host's speed during a run.

On a shared host the same pure-Python work can take up to twice as long from
one second to the next, in phases that last seconds to minutes: other
tenants slow every instruction of this process (the CPU time grows with the
wall time), so no clock and no best-of-N estimator inside one run removes a
slow phase that covers the run.  The benchmark therefore runs this fixed
computation between items and scales every time it reports by
``NOMINAL_S / (mean time of the reference samples)`` taken over the same
stretch of the run: a time in the benchmark's output is the time the work
would take on a host that runs this computation in ``NOMINAL_S``.

The computation is a product of two sparse polynomials over Q stored as
dictionaries from exponent tuples to ``Fraction``, the representation and
the arithmetic the kernel spends its time in, so a slow phase slows it by
about the factor it slows the kernel.  It is part of the benchmark, not of
the kernel, so a change to the kernel never changes it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The reference's time on an idle core of the host the benchmark was
# calibrated on (Intel Xeon, Python 3.11), rounded: scaled times read as
# ordinary seconds on that host.
NOMINAL_S = 0.0005

_A = {(i, j, (i * j) % 3): Fraction(i - 2 * j + 1, j + 1) for i in range(4) for j in range(4)}
_B = {(j, (i + j) % 4, i): Fraction(3 * i + 1, 2 * j + 3) for i in range(3) for j in range(4)}


def _product() -> dict:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return {e: c for e, c in out.items() if c}


EXPECTED = _product()


def sample(clock=time.thread_time) -> float:
    """Run the reference once and return its time on ``clock``."""
    start = clock()
    result = _product()
    elapsed = clock() - start
    if result != EXPECTED:
        raise RuntimeError("the reference computation gave a different product")
    return elapsed
