"""A fixed stdlib loop that probes how fast the machine runs right now.

On a shared host the CPU's speed can change by more than 1.5x within
seconds (seen on a 2-vCPU Xeon VM).  Each timed call is bracketed by this
loop, and its duration is rescaled to a machine on which the loop takes
``NOMINAL_S``.  The loop uses only ``fractions``, the same kind of work as
the exact backend, and no qaskey code.  The garbage collector is off while
it runs, so a collection cannot scan the heap that qaskey left behind and
bill that to the probe.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.002
_ITERATIONS = 400


def reference_s() -> float:
    """Wall time of one pass of the fixed loop."""
    x, y, acc = Fraction(3, 7), Fraction(-5, 11), Fraction(0)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(1, _ITERATIONS):
            acc = (acc + x * y) / Fraction(i % 13 + 1, i % 7 + 2)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def rescaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as they would read on the nominal machine."""
    return seconds * NOMINAL_S * 2.0 / (ref_before + ref_after)
