"""A pace probe: how fast this host runs pure Python right now.

The benchmark runs on shared hosts whose speed swings by 1.5-2x over
seconds to minutes while the program stays the same.  A host-clock
figure alone therefore measures the host as much as the program.  The
probe is a fixed piece of pure-Python work shaped like the simulator's
inner loop (a heap of timed entries, generator resumption, dict and
attribute traffic, small allocations).  It imports nothing from the
program, so no change to the program changes its cost; run next to
the program, its duration says how fast the host ran the program at
that moment.

Host-clock figures are rescaled to a *reference host* on which one
probe takes :data:`REFERENCE_S`: a figure measured while the probe
took twice as long is halved (a time) or doubled (a rate).
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List, Tuple

__all__ = ["PROBE_EVERY_S", "REFERENCE_S", "Pacer", "probe"]

#: Duration of one probe on the reference host, seconds (a fixed
#: scale, near the probe's duration on a 2-core Xeon VM).
REFERENCE_S = 0.0005
#: Host seconds between probes while a stretch is timed: often enough
#: to follow the host's swings, which come within a second.
PROBE_EVERY_S = 0.02


class _Entry:
    __slots__ = ("name", "count")

    def __init__(self, name: str):
        self.name = name
        self.count = 0


def _worker(table: dict):
    total = 0
    while True:
        key = yield total
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        entry.count += 1
        total += entry.count


def _work() -> int:
    heap: list = []
    table: dict = {}
    worker = _worker(table)
    next(worker)
    keys = ["k%d" % (index % 37) for index in range(64)]
    total = 0
    for step in range(400):
        when = (step * 7919) % 1009 * 0.001
        heapq.heappush(heap, (when, step, keys[step % 64]))
        if len(heap) > 32:
            _when, _seq, key = heapq.heappop(heap)
            total += worker.send(key)
            total += len(b"".join((key.encode(), b":", b"x" * 8)))
    return total


def probe() -> float:
    """Host seconds one probe takes now (collector paused, so a
    collection the program's garbage triggers is not charged here)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Times one stretch of the program on the host clock and probes
    the host's pace every :data:`PROBE_EVERY_S` host seconds while it
    runs, at the points where the program calls :meth:`tick`.

    The stretch is cut into intervals at the probes; each interval's
    host seconds are rescaled by the mean of the two probes around it.
    Probing time is left out of both clocks.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        #: (host clock before the probe, after it, probe seconds)
        self.marks: List[Tuple[float, float, float]] = []
        self._next = 0.0

    def start(self) -> "Pacer":
        self._mark()
        return self

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self._mark()

    def stop(self) -> None:
        self._mark()

    def _mark(self) -> None:
        before = time.perf_counter()
        took = probe()
        after = time.perf_counter()
        self.marks.append((before, after, took))
        self._next = after + self.every_s

    @property
    def host_s(self) -> float:
        """Host seconds of the stretch, probing left out."""
        return sum(following[0] - mark[1] for mark, following
                   in zip(self.marks, self.marks[1:]))

    @property
    def reference_s(self) -> float:
        """The stretch's duration on the reference host."""
        return sum((following[0] - mark[1]) * REFERENCE_S * 2.0
                   / (mark[2] + following[2])
                   for mark, following in zip(self.marks, self.marks[1:]))

    @property
    def probing_s(self) -> float:
        """Host seconds spent probing so far."""
        return sum(after - before for before, after, _took in self.marks)
