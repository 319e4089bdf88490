"""Host-speed calibration: a fixed pure-Python snippet timed during each step.

The benchmark's host shares its physical cores with other machines.
Measured there, the same computation alternates between two speeds
about 1.8x apart, in phases of about a second, and the mix drifts over
minutes.  That moves every host time by far more than a regression
bound can tolerate.  So while a step runs, an interval timer interrupts
it every :data:`INTERVAL` seconds of wall time and times
:func:`reference_snippet` — stdlib-only heap work shaped like the
simulator's event loop, which no change to the program can speed up or
slow down.  The step's host times are then reported at the speed at
which the snippet takes :data:`REFERENCE_SECONDS`::

    time at reference speed = measured time * REFERENCE_SECONDS
                              / mean snippet time during the step

A change that makes the program 20% faster makes the reported time 20%
smaller; a slower phase of the host slows the snippet alike and cancels
out.  The snippet runs in a signal handler between two bytecodes of the
program and touches none of its state; it adds about 0.4% to every
measured time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

#: Wall seconds between two snippet samples.
INTERVAL = 0.05

#: Seconds one :func:`reference_snippet` takes on the reference host (a
#: 2 GHz 2-vCPU virtual machine, Python 3.11, in its fast phase).
REFERENCE_SECONDS = 170e-6


def reference_snippet(pushes: int = 300) -> float:
    """Host seconds for one fixed batch of heap pushes and pops."""
    started = time.perf_counter()
    heap: List[tuple] = []
    for seq in range(pushes):
        heapq.heappush(heap, (float((seq * 7919) % 997), seq, seq))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class SpeedSampler:
    """Samples :func:`reference_snippet` every :data:`INTERVAL` seconds
    while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_snippet())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Multiplier from host seconds to reference-speed seconds."""
        samples = self.samples or [reference_snippet()]
        return REFERENCE_SECONDS / statistics.fmean(samples)
