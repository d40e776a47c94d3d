"""Machine-speed calibration, interleaved with the workload.

On a shared machine the speed available to one process drifts by tens
of percent within seconds, and every timing of a run drifts with it. A
fixed pure-Python loop run *between* ops, while every connection is
parked and the server is idle, measures that drift; dividing a timing by
``loop time / REFERENCE_S`` reports it in milliseconds of a machine on
which the loop takes :data:`REFERENCE_S`. The loop touches no code of
the program under test, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 0.016  # the loop's time on the reference machine
INTERVAL_S = 0.5  # workload time between two calibration samples
NEIGHBOURS = 2  # samples each side of an op that calibrate it


def loop_s() -> float:
    """Time one run of the fixed calibration loop: big-integer, 64-bit
    lane and dict work, the mix pure-Python crypto and codecs do."""
    start = time.perf_counter()
    acc, p, mask = 1, (1 << 127) - 1, (1 << 64) - 1
    lanes = list(range(1, 26))
    table = {}
    for i in range(1, 24000):
        acc = (acc * (i | 1) + i) % p
        j = i % 25
        lanes[j] = ((lanes[j] << 3 | lanes[j] >> 61) ^ lanes[(j + 7) % 25]) & mask
        table[i & 255] = lanes[j] & 0xFF
    return time.perf_counter() - start


def factor(samples) -> float:
    """How much slower than the reference machine the samples say this
    machine ran (divide a timing by it, multiply a rate by it)."""
    return statistics.median(samples) / REFERENCE_S


class Speed:
    """The slowdown at each moment of a window, from the gate samples
    nearest to it: the machine's speed drifts within a run, so each op
    is calibrated by the samples taken around it."""

    def __init__(self, times: list[float], samples: list[float]):
        self.times = times
        self.samples = samples

    def at(self, moment: float) -> float:
        i = bisect.bisect(self.times, moment)
        near = self.samples[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return factor(near or self.samples)

    def calibrate(self, timed) -> list[float]:
        """``(start, value)`` pairs -> values in reference-machine units."""
        return [value / self.at(start) for start, value in timed]


class Gate:
    """Parks every connection thread every :data:`INTERVAL_S` and times
    the calibration loop while nothing else runs.

    Each connection calls :meth:`checkpoint` between ops and
    :meth:`leave` when its stream ends. The last thread to arrive runs
    the loop and releases the others.
    """

    def __init__(self, parties: int, interval_s: float = INTERVAL_S):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.interval_s = interval_s
        self._cond = threading.Condition()
        self._parties = parties
        self._arrived = 0
        self._generation = 0
        self._next_at = time.perf_counter() + interval_s

    def checkpoint(self) -> None:
        if time.perf_counter() < self._next_at:
            return
        with self._cond:
            generation = self._generation
            self._arrived += 1
            if not self._release_if_all_arrived():
                while generation == self._generation:
                    self._cond.wait()

    def speed(self) -> Speed:
        if not self.samples:  # a window shorter than one interval
            self.times.append(time.perf_counter())
            self.samples.append(loop_s())
        return Speed(self.times, self.samples)

    def leave(self) -> None:
        with self._cond:
            self._parties -= 1
            self._release_if_all_arrived()

    def _release_if_all_arrived(self) -> bool:
        if self._arrived == 0 or self._arrived < self._parties:
            return False
        self.times.append(time.perf_counter())
        self.samples.append(loop_s())
        self._arrived = 0
        self._generation += 1
        self._next_at = time.perf_counter() + self.interval_s
        self._cond.notify_all()
        return True
