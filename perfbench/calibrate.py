"""Host-speed sampling: a fixed reference kernel timed while operations run.

On a shared host one process's speed jumps between levels up to 2x apart
within seconds, and drifts over minutes with other tenants' load, which
swamps any change to pressim. ``HostSampler`` interrupts the process every
``PERIOD_S`` (a SIGALRM timer) and times one run of a short reference
kernel; the median kernel time over an operation, divided by
``REFERENCE_S``, is the host's slowness while that operation ran. ``run.py``
divides host seconds by it (see ``README.md``, Steadiness).

The kernel is the benchmark's own code and never calls or touches pressim,
so a change to the library moves the operations and not the kernel. It
mixes the kinds of work pressim does: interpreted object, dict, deque and
float work like the engine and pressure code, and small numpy calls like
the learner. Garbage collection is held off while it runs, so the library's
collections stay in the library's time.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from collections import deque

import numpy as np

PERIOD_S = 0.1  # host seconds between samples while an operation runs
REFERENCE_S = 0.002  # the kernel's seconds at reference host speed


class _Lane:
    __slots__ = ("queue", "weight")

    def __init__(self, weight: float):
        self.queue: deque[int] = deque()
        self.weight = weight


_LANES = [_Lane(1.0 + (i % 5) * 0.25) for i in range(48)]
_FEATURES = np.arange(64 * 24, dtype=np.float64).reshape(64, 24) / 1536.0


def _interpreted(steps: int) -> float:
    counts: dict[tuple[int, int], int] = {}
    state = 12345
    total = 0.0
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        lane = _LANES[state % 48]
        lane.queue.append(step)
        if len(lane.queue) > 6:
            lane.queue.popleft()
        key = (state & 15, len(lane.queue))
        counts[key] = counts.get(key, 0) + 1
        total += math.sqrt(lane.weight * len(lane.queue)) - 0.5
    return total + len(counts)


def _arrays(steps: int) -> float:
    weights = np.full((24, 8), 0.01)
    for _ in range(steps):
        q = _FEATURES @ weights
        best = q.max(axis=1)
        error = q - best[:, None] * 0.9
        weights -= 0.001 * (_FEATURES.T @ error) / 64.0
    return float(weights.sum())


def kernel_seconds() -> float:
    """Host seconds of one run of the reference kernel."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _interpreted(1500)
        _arrays(12)
        return time.perf_counter() - began
    finally:
        if collecting:
            gc.enable()


class HostSampler:
    """Samples the kernel every ``PERIOD_S`` while active.

    ``with sampler:`` around an operation; afterwards ``spent`` holds the
    host seconds the samples took inside it (to take out of the operation's
    time) and ``scale()`` the host's slowness over it. One sample is always
    taken on exit, so operations shorter than the period get one too.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum: int, frame: object) -> None:
        began = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - began

    def __enter__(self) -> "HostSampler":
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample(signal.SIGALRM, None)

    def scale(self) -> float:
        """Median kernel time over ``REFERENCE_S``: 1 at reference speed,
        2 on a host running at half of it."""
        return statistics.median(self.samples) / REFERENCE_S
