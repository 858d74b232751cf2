"""Time program code in normalized seconds, which factor out the host's speed.

On a shared virtual machine one vCPU's speed moves by 40% and more within
seconds, in phases that last from a second to minutes: a fixed pure-Python
loop took anywhere from 17 us to 28 us within two minutes. CPU time moves
with wall time (the process is not descheduled; the core runs slower), so
timing with CPU time does not help.

A Stopwatch therefore samples the host's speed while the program runs.
Every SAMPLE_INTERVAL_S a timer signal runs a fixed reference snippet on the
same thread, between two of the program's bytecodes, and records how long
the snippet took; the snippet's own time is taken out of the program's time.
The program's seconds times NOMINAL_SNIPPET_S / (mean snippet time) are
its normalized seconds (unit `norm-s`): the time the same work would take
on a host where the snippet runs in NOMINAL_SNIPPET_S. Taking work out of
the program lowers its normalized seconds in the same proportion as its
seconds.

The mean, not the median: samples fall uniformly in time, so their mean
is the time-averaged slowdown the program ran under, fast and slow phases
and stalls in their shares. On interleaved identical calls of the three
workloads over ten minutes, normalizing by the mean left a spread of call
times (coefficient of variation) of 0.035-0.077, by the median 0.070-0.113,
and raw seconds spread by 0.12-0.18.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

SAMPLE_INTERVAL_S = 0.01
# sets the scale of a normalized second: about the snippet's time on a
# 2.0 GHz Xeon vCPU in a fast phase
NOMINAL_SNIPPET_S = 35e-6

_KEYS = tuple(range(64)) * 16
_TABLE = {k: k for k in _KEYS}


def snippet_seconds() -> float:
    """One run of the reference snippet: 1024 dict lookups, no allocation.

    The garbage collector is held off so that a collection the program's
    own allocations are due is not charged to the snippet.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for key in _KEYS:
        _TABLE[key]
    seconds = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return seconds


class Stopwatch:
    """Program time, with the host's speed sampled while it runs."""

    def __init__(self) -> None:
        self.seconds = 0.0  # program wall time, snippets excluded
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(snippet_seconds())

    @contextmanager
    def running(self) -> Iterator[None]:
        """Time the block; sample the snippet before it and every interval in it."""
        self.samples.append(snippet_seconds())
        taken = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.seconds += elapsed - sum(self.samples[taken:])

    @property
    def norm_seconds(self) -> float:
        return self.seconds * NOMINAL_SNIPPET_S / statistics.fmean(self.samples)
