"""A wall-clock limit per op, enforced by the benchmark, not by the package.

The limit is a real-time interval timer: when it fires, the signal handler
raises ``OpTimeout`` inside whatever Python code the op is running, so an
op that spins is abandoned and the stream goes on.  Main thread only.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, Optional, Tuple


class OpTimeout(Exception):
    """The op ran past its wall limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed_call(
    fn: Callable[[], Any], limit_s: float
) -> Tuple[int, Any, Optional[BaseException]]:
    """Run ``fn()`` under a wall limit.

    Returns ``(elapsed_ns, result, error)``; exactly one of ``result`` and
    ``error`` is meaningful.  Any ``Exception`` the op raises, and the
    timeout itself, come back as ``error`` instead of propagating.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = error = None
    try:
        t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = fn()
        except Exception as exc:  # the op's failure is a measured outcome
            error = exc
        finally:
            t1 = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout as exc:  # fired between the call's end and disarming
        t1 = time.perf_counter_ns()
        error = exc
    finally:
        signal.signal(signal.SIGALRM, previous)
    return t1 - t0, result, error
