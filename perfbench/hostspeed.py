"""Host-speed probe: a fixed pure-Python loop timed between operations.

The benchmark runs on shared virtual CPUs whose speed changes by tens of
percent from minute to minute and from process to process, far more
than the changes the benchmark is asked to decide.  The probe measures
that speed where it is felt: a fixed loop of the kind of work the
program does — interpreted integer arithmetic, dict stores and small
allocations — timed a few milliseconds at a time between operations
throughout the run.

Each wall time is reported multiplied by ``REFERENCE_PROBE_S / median
wall of the probes around it``: the time the operation would have taken
on a host that runs the probe in :data:`REFERENCE_PROBE_S`.  Rates count
operations over such scaled walls.  Scaling by the probes of the same
second, not of the whole run, follows the host as it changes within a
run.  The probe is the benchmark's own code and never calls the
program, so a change to the program moves the operations and not the
probe.  It runs with the cyclic collector off and frees what it
allocates, so the size of the program's heap does not slow it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

#: A probe's wall on the quiet 2-vCPU VM the benchmark was defined on
#: (CPython 3.11): the speed every reported time is expressed at.
REFERENCE_PROBE_S = 0.0016

#: Loop rounds of one probe, about :data:`REFERENCE_PROBE_S` of wall.
PROBE_ROUNDS = 8_000

#: A probe runs at most this often, so it costs a few percent of a run.
PROBE_EVERY_S = 0.05

#: A wall is scaled by the median of the probes taken within this many
#: seconds of its middle, and of at least :data:`LOCAL_PROBES` probes.
WINDOW_S = 1.0
LOCAL_PROBES = 9


def _spin(rounds: int) -> int:
    """Integer arithmetic, dict stores and small tuples appended to a list."""
    acc = 0
    table = {}
    kept = []
    for index in range(rounds):
        acc += index * index % 7
        table[index % 97] = acc
        kept.append((index, acc))
    return acc


class SpeedProbe:
    """Probe samples of one run, and walls scaled by the ones around them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.walls: List[float] = []
        self.spent = 0.0
        self._due = 0.0

    def probe(self, count: int = 1) -> None:
        clock = time.perf_counter
        began = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = clock()
                _spin(PROBE_ROUNDS)
                end = clock()
                self.times.append(end)
                self.walls.append(end - start)
        finally:
            if collecting:
                gc.enable()
        now = clock()
        self.spent += now - began
        self._due = now + PROBE_EVERY_S

    def maybe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last one."""
        if time.perf_counter() >= self._due:
            self.probe()

    def local_wall(self, at: float) -> float:
        """Median probe wall within :data:`WINDOW_S` of the clock ``at``.

        Where that window holds fewer than :data:`LOCAL_PROBES` probes,
        the ones nearest in time are used instead.
        """
        if not self.walls:
            self.probe(LOCAL_PROBES)
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if hi - lo < LOCAL_PROBES:
            middle = bisect.bisect_left(self.times, at)
            lo = max(0, min(middle - LOCAL_PROBES // 2,
                            len(self.walls) - LOCAL_PROBES))
            hi = lo + LOCAL_PROBES
        return statistics.median(self.walls[lo:hi])

    def scaled(self, start: float, wall: float) -> float:
        """``wall``, begun at clock ``start``, at the reference speed."""
        return wall * REFERENCE_PROBE_S / self.local_wall(start + wall / 2)

    def info(self) -> dict:
        return {
            "probe_ms": statistics.median(self.walls) * 1e3,
            "probe_samples": len(self.walls),
            "reference_probe_ms": REFERENCE_PROBE_S * 1e3,
        }
