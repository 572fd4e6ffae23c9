"""Host-speed reference for the end-to-end timings.

The 2-vCPU x86-64 virtual machine this benchmark was written on changes
speed by up to a factor of two within minutes (the same set-up process
took 1.3 s to 2.8 s in one series of runs), which swamps any change in
the library.  So the untraced run times a fixed kernel, which uses no
``tempstable`` code, right before every task and around every set-up
process, and reports each duration at a nominal host speed: multiplied
by ``NOMINAL / r``, where ``r`` is the kernel's time around it.  The raw
durations are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on that machine in its fast state
NOMINAL = 0.020
WINDOW = 3  # references on each side in the median that scales one task

_Z = np.linspace(0.0, 50.0, 8192)
_X = np.linspace(-3.0, 3.0, 32)


def reference() -> float:
    """Seconds the fixed kernel takes now: a complex-exponential matrix,
    float formatting and an interpreted loop, like the tasks' own mix."""
    t0 = time.perf_counter()
    float(np.exp(-1j * np.outer(_X, _Z)).real.sum())
    ",".join(f"{v:.17g}" for v in _Z[:3000])
    acc = 0
    for i in range(30000):
        acc += i * i
    return time.perf_counter() - t0


def smoothed(refs: list[float]) -> list[float]:
    """Median of each reference and its WINDOW neighbours on each side."""
    return [statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(refs))]


def scale(seconds: float, ref: float) -> float:
    """A duration at nominal host speed, given the reference around it."""
    return seconds * NOMINAL / ref
