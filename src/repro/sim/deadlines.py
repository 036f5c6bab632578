"""Pooled guard deadlines: many pending deadlines, one armed timer.

Every guarded operation in the repo — a UDP RPC attempt, a channel
call with a timeout, a TCP connect — used to arm its own kernel
:class:`~repro.sim.kernel.Timeout` and cancel it the moment the
guarded operation completed.  That is one heap push plus lazy-cancel
churn per call, per retry, per connect, on paths where the deadline
almost never fires.  This module replaces the per-call timers with
**deadline pools**: a pool tracks any number of pending deadlines but
keeps at most *one* timer armed in the kernel heap — re-armed only
when the earliest pending deadline changes.

One implementation, :class:`_DeadlinePool`, keeps the pool's entries
in its own ``(when, seq)`` heap; the two public shapes differ only in
how a deadline's delay is given:

* :class:`FifoDeadlinePool` — for clients whose every deadline uses
  one **fixed delay** (:class:`~repro.sim.rpc.UdpRpcClient`: a single
  retry ``timeout`` per client).  On a monotonic clock such deadlines
  arrive in expiry order, so each push stays at the bottom of the heap
  after one comparison and the armed timer is never undercut.
* :class:`OrderedDeadlinePool` — for **mixed** delays
  (:meth:`RpcChannel.call(timeout=...) <repro.sim.rpc.RpcChannel
  .call>` and :meth:`Host.connect <repro.sim.transport.Host.connect>`
  guards).  One shared pool per simulator (:func:`shared_pool`)
  serves all mixed-deadline guards.

**Pooling is invisible to event ordering.**  Each ``add`` reserves a
global sequence number (:meth:`~repro.sim.kernel.Simulator
.reserve_seq`) at exactly the program point where the old code
created its per-call ``Timeout`` — so every other event in the run
draws exactly the sequence numbers it always did — and the pool arms
its kernel timer with ``timeout_at(when, seq=reserved)``, so an
expiry fires at exactly the ``(time, seq)`` position the dedicated
per-call timer would have occupied.  When several deadlines share one
instant, the pool expires exactly *one* entry per timer firing and
re-arms at the next entry's reserved ``(time, seq)``, preserving even
same-instant interleavings with unrelated events.  Trace-replay tests
pin byte-identical ``LoadStats`` against the per-call-timer
implementation (``tests/sim/test_deadlines.py``).

**Cancellation is lazy, like the kernel's.**  ``cancel`` marks the
entry dead in O(1); dead entries are discarded when they surface at
the head of the pool.  A timer armed for a since-cancelled deadline
is left to fire (firing is cheap and consumes no sequence numbers);
its firing discards the dead prefix and re-arms for the earliest live
deadline, so in the steady state of a fast RPC client the kernel arms
roughly one timer per *timeout interval*, not one per call.  Expiry
of a dead or already-answered waiter passes silently — the pre-defuse
discipline of the old per-call guards is preserved by the expiry
callbacks themselves (see :func:`repro.sim.rpc._expire_waiter`).

**An undercut timer is kept, not cancelled.**  When a new deadline
undercuts the armed one, the superseded timer stays pending in the
kernel heap at its reserved ``(time, seq)`` and stays recorded on its
own entry; if that entry becomes the earliest again, the pool re-uses
the timer instead of arming a new one (cancelling would blank its heap
slot in place, and a later re-arm at the same reserved position would
collide with the blanked entry).  A firing of any timer other than the
currently armed one is ignored.

Telemetry follows the repo's pull-only discipline: plain-int counters
on the hot path, exposed as function-backed instruments via
``bind_metrics`` (pool depth, entries armed/cancelled/expired, and
kernel re-arm counts — the ``timer_arms``/``armed`` ratio is the
pooling win).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from .kernel import SimulationError, Simulator, Timeout

__all__ = [
    "FifoDeadlinePool",
    "OrderedDeadlinePool",
    "shared_pool",
]


def _invoke(callback: Callable[[], None]) -> None:
    """Default expiry action: the payload is a zero-arg callback."""
    callback()


# A pending deadline is a plain 5-slot list — ``[when, seq, payload,
# dead, timer]`` — mirroring the kernel's own heap-entry idiom: on the
# hot guarded-call path a list literal beats a class instantiation (no
# ``__init__`` frame), lists order by ``(when, seq)`` in the pool heap
# (seqs are unique, so the later slots are never compared), and
# callers only ever treat the entry as an opaque handle to pass back
# to :meth:`_DeadlinePool.cancel`.  ``timer`` is the kernel timer once
# armed for the entry, re-used if the entry is armed again.
_WHEN, _SEQ, _PAYLOAD, _DEAD, _TIMER = range(5)


class _DeadlinePool:
    """Many deadlines in one ``(when, seq)`` heap, one armed timer.

    The subclasses only say how a deadline's delay is given; both add
    through :meth:`_push`.
    """

    __slots__ = ("sim", "_expire", "_reserve", "_heap", "_timer",
                 "_armed_when", "_live", "armed_total", "cancelled_total",
                 "expired_total", "timer_arms", "timer_shelved")

    def __init__(self, sim: Simulator,
                 expire: Optional[Callable[[Any], None]] = None):
        self.sim = sim
        #: called with the entry payload when a live deadline expires.
        self._expire = expire if expire is not None else _invoke
        self._reserve = sim.reserve_seq  # bound once: one call per add
        self._heap: List[list] = []
        self._timer: Optional[Timeout] = None
        self._armed_when = 0.0
        self._live = 0
        self.armed_total = 0       # entries ever added
        self.cancelled_total = 0   # entries withdrawn before expiry
        self.expired_total = 0     # entries that fired
        self.timer_arms = 0        # kernel timers armed
        self.timer_shelved = 0     # armed timers undercut by an
        #                            earlier deadline

    def __len__(self) -> int:
        return len(self._heap)

    # -- accounting ----------------------------------------------------

    @property
    def live(self) -> int:
        """Deadlines currently pending (armed and not yet resolved)."""
        return self._live

    def bind_metrics(self, registry, prefix: str) -> None:
        """Expose the pool's plain-int accounting as function-backed
        instruments (the add/cancel hot path never touches one)."""
        registry.counter(prefix + ".armed", fn=lambda: self.armed_total)
        registry.counter(prefix + ".cancelled",
                         fn=lambda: self.cancelled_total)
        registry.counter(prefix + ".expired", fn=lambda: self.expired_total)
        registry.counter(prefix + ".timer_arms", fn=lambda: self.timer_arms)
        registry.counter(prefix + ".timer_shelved",
                         fn=lambda: self.timer_shelved)
        registry.gauge(prefix + ".depth", fn=lambda: self._live)

    # -- add and the client-facing O(1) cancel ---------------------------

    def _push(self, when: float, payload: Any) -> list:
        entry = [when, self._reserve(), payload, False, None]
        heappush(self._heap, entry)
        self._live += 1
        self.armed_total += 1
        if self._timer is None:
            self._arm(entry)
        elif when < self._armed_when:
            # The new deadline undercuts the armed one (a tie keeps
            # the armed timer: the new entry's reserved seq is
            # larger) — the only case where an add touches the kernel
            # heap while a timer is armed.
            self.timer_shelved += 1
            self._arm(entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """Withdraw a pending deadline; True if it was still pending.

        O(1): the entry is only marked; the heap discards it when it
        surfaces.  Cancelling an expired (or already cancelled) entry
        is a harmless no-op, mirroring :meth:`Timeout.cancel`.
        """
        if entry[_DEAD]:
            return False
        entry[_DEAD] = True
        self._live -= 1
        self.cancelled_total += 1
        return True

    # -- kernel timer management ---------------------------------------

    def _arm(self, entry: list) -> None:
        """Arm the kernel timer at the entry's reserved (time, seq)."""
        self._armed_when = entry[_WHEN]
        timer = entry[_TIMER]
        if timer is None:
            self.timer_arms += 1
            timer = self.sim.timeout_at(entry[_WHEN], seq=entry[_SEQ])
            timer.add_callback(self._on_fire)
            entry[_TIMER] = timer
        self._timer = timer

    def _sweep(self) -> Optional[list]:
        """Drop dead entries off the top; return the earliest live one.

        When dead entries outnumber live ones (the kernel's compaction
        rule) the heap is first rebuilt from its live entries in one
        O(n) pass: a fast client cancels nearly every guard, and
        popping each one through the heap would cost O(log n) apiece.
        """
        heap = self._heap
        if self._live * 2 < len(heap):
            heap[:] = [entry for entry in heap if not entry[_DEAD]]
            heapify(heap)
        while heap and heap[0][_DEAD]:
            heappop(heap)
        return heap[0] if heap else None

    def _on_fire(self, event) -> None:
        if event is not self._timer:
            return  # an undercut timer whose entry died meanwhile
        self._timer = None
        head = self._sweep()
        if head is None:
            return
        if head[_TIMER] is not event:
            self._arm(head)
            return
        # The timer fired for the current live head: expire exactly
        # this one entry, then re-arm for the next — possibly at the
        # same instant, where the reserved seq slots the next expiry
        # into the run order exactly where its own timer would have
        # been.  The re-arm runs even if the expiry action raises, so
        # a later run() still fires every remaining deadline.
        heappop(self._heap)
        head[_DEAD] = True
        self._live -= 1
        self.expired_total += 1
        try:
            self._expire(head[_PAYLOAD])
        finally:
            head = self._sweep()
            if head is not None:
                self._arm(head)


class FifoDeadlinePool(_DeadlinePool):
    """Deadline pool for one fixed delay.

    All entries share ``delay``, so with monotonic simulation time
    they expire in the order they were added.  This is the shape of
    :class:`~repro.sim.rpc.UdpRpcClient`: one retry timeout per
    client, one guard per attempt.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float,
                 expire: Optional[Callable[[Any], None]] = None):
        if delay < 0:
            # Zero is degenerate but legal (guards expiring at the
            # instant they are armed — FIFO still holds); negative
            # mirrors sim.timeout(delay).
            raise SimulationError("negative delay: %r" % (delay,))
        super().__init__(sim, expire)
        self.delay = delay

    def add(self, payload: Any) -> list:
        """Register a deadline ``delay`` from now; returns the handle
        to :meth:`cancel` when the guarded operation completes."""
        return self._push(self.sim.now + self.delay, payload)


class OrderedDeadlinePool(_DeadlinePool):
    """Deadline pool for mixed delays, each given per ``add``.

    Mixed-deadline guards are rare next to the UDP fast path (channel
    calls with explicit timeouts, TCP connects), so the pool heap and
    the undercut timers left in the kernel heap stay small.
    """

    __slots__ = ()

    def add(self, payload: Any, delay: float) -> list:
        """Register a deadline ``delay`` from now; returns the handle
        to :meth:`cancel`.  For the default pool-level expiry action,
        ``payload`` is a zero-arg callback."""
        if delay < 0:
            # Reject before touching any state: a stranded past-dated
            # entry would poison the (simulator-wide) pool and crash
            # the next firing.  Same surface as sim.timeout(delay).
            raise SimulationError("negative delay: %r" % (delay,))
        return self._push(self.sim.now + delay, payload)


def shared_pool(sim: Simulator) -> OrderedDeadlinePool:
    """The simulator-wide mixed-deadline pool, created on first use.

    All mixed-delay guards in a world (channel call timeouts, connect
    guards) share one :class:`OrderedDeadlinePool`, so the whole
    simulator keeps a single armed guard timer for them.  The pool is
    stashed on the simulator instance; :class:`~repro.sim.world.World`
    binds its metrics as ``kernel.deadline_pool.*``.
    """
    pool = getattr(sim, "_shared_deadline_pool", None)
    if pool is None:
        pool = OrderedDeadlinePool(sim)
        sim._shared_deadline_pool = pool
    return pool
