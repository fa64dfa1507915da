"""The machine's speed, measured beside the ops, so times read at one speed.

The benchmark's host is a few shared cores whose speed drifts by up to
about 2x within minutes, and back again within seconds.  The drift moves
process CPU time as much as wall time, so no clock removes it.  Instead a
fixed pure-Python kernel (this module's, with no zariski code in it) is
timed between ops, and each op's wall time is read at the reference
speed::

    scaled_ns = wall_ns * REF_NS / (kernel time just before and after the op)

``REF_NS`` is the kernel's median time on the machine the benchmark was
defined on, so scaled times stay in real milliseconds there.  A change to
zariski moves its ops and not the kernel, so it shows in full; a slow
minute of the host moves both, and cancels.  The kernel runs with the
garbage collector off, so gc settings made by the package cannot touch it.
The raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

from .stats import median

# The kernel's median time, in ns, on the reference machine (2 shared
# vCPUs, Python 3.11.7; median(calibrate(200)) read 1.4 to 2.6 ms there as
# the host's load moved).  Scaled times are wall times at that speed.
REF_NS = 1_800_000
# A kernel sample at most this often between ops: about 5 % of the stream.
INTERVAL_NS = 30_000_000

# Two dense polynomials of degree 3 in 3 variables, one with Fraction and
# one with int coefficients, as the package's QQ and GF(p) arithmetic has.
_MONOS = [m for m in itertools.product(range(4), repeat=3) if sum(m) <= 3]
_LEFT = [(m, Fraction(i % 7 - 3, 1 + i % 4)) for i, m in enumerate(_MONOS)]
_RIGHT = [(m, (i * 7919) % 32003) for i, m in enumerate(_MONOS)]


def kernel() -> int:
    """The reference work: one dict-based polynomial product."""
    out = {}
    for m1, c1 in _LEFT:
        for m2, c2 in _RIGHT:
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return len(out)


def sample() -> int:
    """Time one kernel run, in ns, with the garbage collector off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        if was_on:
            gc.enable()


class Speedometer:
    """Kernel samples taken between ops, at most every ``INTERVAL_NS``."""

    def __init__(self):
        self.samples: List[Tuple[int, int]] = []  # (taken at, kernel ns)
        self._last = 0

    def tick(self, force: bool = False) -> None:
        """Call between ops; samples the kernel when one is due, or now
        with ``force`` (after the last op)."""
        now = time.perf_counter_ns()
        if force or now - self._last >= INTERVAL_NS:
            self.samples.append((now, sample()))
            self._last = time.perf_counter_ns()


def scale(
    ops: Sequence[Tuple[int, int]],
    samples: Sequence[Tuple[int, int]],
    whole_run: bool = False,
) -> List[float]:
    """Each op ``(start ns, wall ns)`` read at the reference speed, in ns.

    The speed of an op is the median kernel time of the last sample taken
    before it and the first taken after it: the host's speed moves within
    a second, so the nearest samples follow in-process ops best.  With
    ``whole_run`` it is the median of all samples: for ops in child
    processes, whose speed the parent's samples do not follow call by call.
    """
    if not samples:
        raise ValueError("no kernel samples to scale by")
    at = [t for t, _ in samples]
    ns = [k for _, k in samples]
    if whole_run:
        whole = median(ns)
        return [wall * REF_NS / whole for _, wall in ops]
    out = []
    for start, wall in ops:
        lo = max(0, bisect.bisect_right(at, start) - 1)
        hi = bisect.bisect_left(at, start + wall) + 1
        out.append(wall * REF_NS / median(ns[lo:hi]))
    return out


def at_reference(wall: float, kernel_ns: Sequence[int]) -> float:
    """``wall`` read at the reference speed, given kernel samples taken
    right around it (set-up, where there are no ops to interleave)."""
    return wall * REF_NS / median(kernel_ns)


def calibrate(n: int) -> List[int]:
    """``n`` kernel samples back to back."""
    return [sample() for _ in range(n)]
