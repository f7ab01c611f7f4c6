"""Host-speed probe: timings that read the same on a host whose speed drifts.

On a shared host the processor runs faster or slower for stretches of a
second to minutes.  CPU time tracks wall time through these stretches, so
they are not scheduling delays the benchmark could subtract; the cores
themselves slow down.  Each worker therefore times a fixed pure-Python
loop between its timed items, at most once per ``PROBE_EVERY_S``, and
records when.  ``run.py`` scales every timed item by
``REFERENCE_PROBE_S`` over the median probe within ``WINDOW_S`` of the
item's start, so a timing reads as it would on a host where the probe
takes ``REFERENCE_PROBE_S``.  Probes run outside every timer, and a
change to the program never changes the probe.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List, Sequence, Tuple

PROBE_LOOPS = 10_000
PROBE_EVERY_S = 0.025  # at most one probe per this much wall time
WINDOW_S = 1.0  # probes this close to an item's start set its scale
REFERENCE_PROBE_S = 1.0e-3  # the probe's time on the reference host
SPAWN_PROBES = 5  # probes before each process start, for setup_s


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class HostProbe:
    """Probes between timed items and keeps ``(perf_counter, seconds)`` samples."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._due = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self.samples.append((now, probe()))
            self._due = time.perf_counter() + PROBE_EVERY_S


def scaler(samples: Sequence[Sequence[float]]) -> Callable[[float], float]:
    """Map a start time to ``REFERENCE_PROBE_S`` over the local median probe.

    Where no probe lies within ``WINDOW_S`` the nearest one is used.
    """
    pairs = sorted((float(t), float(d)) for t, d in samples)
    if not pairs:
        raise ValueError("no host-speed probes recorded")
    stamps = [t for t, _ in pairs]
    secs = [d for _, d in pairs]

    def scale(t: float) -> float:
        lo = bisect.bisect_left(stamps, t - WINDOW_S)
        hi = bisect.bisect_right(stamps, t + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(secs), lo + 1)
        return REFERENCE_PROBE_S / statistics.median(secs[lo:hi])

    return scale
