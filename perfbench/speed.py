"""Host speed reference: a fixed pure-Python kernel timed between cells.

The VM the benchmark was tuned on (2 vCPUs of a shared Xeon host)
changes speed by up to 1.8x in phases lasting from seconds to minutes,
on both vCPUs at once and with CPU time tracking wall time, so a raw
host-time median moves with the neighbours rather than with the
program.  :class:`SpeedLog` runs :func:`kernel` — an event queue over
small objects, dictionary counters and a table lookup, the interpreter
paths the simulator spends its time on — between the cells of a serial
workload, where no simulator work is in flight.  A timing over an interval is
then divided by the log's slowdown over that interval: the
piecewise-linear interpolation between the samples, averaged over the
interval.  The kernel is part of the benchmark, never of the program,
so a change to the program moves the scaled times exactly as it moves
the raw ones; only the host's common-mode drift cancels.

Scaled times are host seconds at :data:`REFERENCE_S`, the kernel's time
on that VM in a calm period.

Start-up is different work (process spawn, unmarshalling and C-extension
loading) and drifts less than the kernel, so set-up time is scaled by
:func:`startup_seconds` instead: a fresh interpreter importing
:data:`STARTUP_IMPORTS`, timed on either side of each set-up probe.  On
that VM it cut the spread of repeated probes from 20 % to 7 % of their
median, where the kernel made it worse.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: one kernel slice's seconds at the reference speed
REFERENCE_S = 0.0075
#: slices per sample; the sample is their median, so one preempted
#: slice does not read as a slow host
SLICES = 5
#: events one kernel slice pops and pushes
ROUNDS = 6_000
#: what a fresh interpreter imports for :func:`startup_seconds`: the
#: program's start-up path outside the repository
STARTUP_IMPORTS = "import numpy, json, dataclasses, multiprocessing, heapq, argparse"
#: :func:`startup_seconds` at the reference speed
STARTUP_REFERENCE_S = 0.2

_OWNERS = 61
_TABLE = tuple(float(i % 977) for i in range(1 << 14))
_MASK = len(_TABLE) - 1


class _Item:
    __slots__ = ("due", "owner", "weight")

    def __init__(self, due: float, owner: int, weight: float) -> None:
        self.due = due
        self.owner = owner
        self.weight = weight


def kernel(rounds: int = ROUNDS) -> float:
    """A fixed amount of simulator-like work; returns a checksum."""
    heap = [(float(i), i, _Item(float(i), i % _OWNERS, 1.0)) for i in range(256)]
    heapq.heapify(heap)
    counts: dict[int, int] = {}
    acc = 0.0
    x = 12345
    seq = len(heap)
    for _ in range(rounds):
        due, _, item = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += _TABLE[x & _MASK] * item.weight
        counts[item.owner] = counts.get(item.owner, 0) + 1
        seq += 1
        owner = (item.owner + x) % _OWNERS
        heapq.heappush(heap, (due + (x & 1023) / 64.0, seq, _Item(due, owner, item.weight * 0.999)))
    return acc + len(counts)


def startup_seconds() -> float:
    """Seconds to spawn an interpreter that imports :data:`STARTUP_IMPORTS`."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", STARTUP_IMPORTS], check=True, capture_output=True, timeout=60
    )
    return time.perf_counter() - start


def _cpu() -> float:
    """CPU of this process plus every child it has reaped."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


@dataclass
class SpeedLog:
    """Slowdown samples over one run: (perf_counter midpoint, slowdown)."""

    samples: list[tuple[float, float]] = field(default_factory=list)
    #: wall and CPU seconds spent sampling, so callers can take them out
    spent_wall: float = 0.0
    spent_cpu: float = 0.0

    def sample(self) -> None:
        """Time :data:`SLICES` kernel slices; log their median slowdown."""
        cpu0 = _cpu()
        start = time.perf_counter()
        slices = []
        for _ in range(SLICES):
            begin = time.perf_counter()
            kernel()
            slices.append(time.perf_counter() - begin)
        end = time.perf_counter()
        self.spent_wall += end - start
        self.spent_cpu += _cpu() - cpu0
        self.samples.append(((start + end) / 2, statistics.median(slices) / REFERENCE_S))

    def _at(self, t: float) -> float:
        samples = self.samples
        if t <= samples[0][0]:
            return samples[0][1]
        for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return samples[-1][1]

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over ``[start, end]`` (exact for the linear interpolation)."""
        if not self.samples:
            raise RuntimeError("no speed sample taken")
        if end <= start:
            return self._at(start)
        points = [start, *(t for t, _ in self.samples if start < t < end), end]
        area = sum(
            (b - a) * (self._at(a) + self._at(b)) / 2 for a, b in zip(points, points[1:])
        )
        return area / (end - start)


__all__ = ["REFERENCE_S", "STARTUP_REFERENCE_S", "SpeedLog", "kernel", "startup_seconds"]
