"""Model-based test of the kernel's ``(time, seq)`` scheduling.

A Hypothesis state machine drives a real :class:`Simulator` and a
deliberately naive reference scheduler side by side: one sorted list
of ``(time, seq, label)`` entries, one global sequence counter, and
"fire the smallest entry" as the whole dispatch rule.  The kernel's
run queue, timer heap, lazy cancellation, heap compaction, reserved
sequence numbers and its single drain loop behind ``run`` and
``run_until_complete`` must be indistinguishable from it.

Every scheduled event fires a callback that logs ``(label, now)`` and
may schedule children at that instant (same-instant ``succeed``
cascades and zero/positive-delay timers), so nested scheduling inside
the loop is covered too.
"""

from __future__ import annotations

import bisect
import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.sim.kernel import SimulationError, Simulator

#: Quarter-grid delays: sums stay exact, so ties actually happen.
DELAYS = (0.0, 0.25, 0.5, 1.0)

# An event spec is ``(kind, delay, children)``: ``kind`` "succeed"
# triggers an event at the current instant (delay ignored), "timeout"
# arms ``sim.timeout(delay)``; children are specs scheduled when the
# event fires.
_LEAF = st.tuples(st.sampled_from(("succeed", "timeout")),
                  st.sampled_from(DELAYS), st.just(()))
SPECS = st.recursive(
    _LEAF,
    lambda inner: st.tuples(st.sampled_from(("succeed", "timeout")),
                            st.sampled_from(DELAYS),
                            st.lists(inner, max_size=2).map(tuple)),
    max_leaves=6)

#: Offsets from ``now`` for run(until)/run_until_complete limits;
#: ``None`` means unbounded.  A limit may lie in the past (nothing at
#: all may run then, not even same-instant events); ``run`` refuses
#: a past ``until`` (see ``run_backwards_is_refused``).
OFFSETS = st.sampled_from((None, 0.0, 0.25, 0.5, 1.0, 2.0))
LIMITS = st.sampled_from((None, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0))


class ReferenceScheduler:
    """The specification: fire the smallest ``(time, seq)`` entry."""

    def __init__(self):
        self.now = 0.0
        self.pending = []        # sorted (time, seq, label, children)
        self.log = []
        self.fired = 0
        self.triggered = set()   # labels whose event has a value
        self.last = (-math.inf, -1)
        self._seq = 0
        self._labels = 0

    def draw(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def label(self) -> str:
        self._labels += 1
        return "e%d" % self._labels

    def schedule(self, spec, when=None, seq=None) -> str:
        kind, delay, children = spec
        label = self.label()
        if when is None:
            when = self.now if kind == "succeed" else self.now + delay
        if kind == "succeed":
            self.triggered.add(label)  # succeed() sets the value now
        bisect.insort(self.pending, (when, self.draw() if seq is None
                                     else seq, label, children))
        return label

    def cancel(self, label) -> bool:
        for index, entry in enumerate(self.pending):
            if entry[2] == label:
                del self.pending[index]
                return True
        return False

    def fire_next(self) -> None:
        when, seq, label, children = self.pending.pop(0)
        self.now = when
        self.last = (when, seq)
        self.triggered.add(label)
        self.fired += 1
        self.log.append((label, when))
        for child in children:
            self.schedule(child)

    def drain(self, stop, limit) -> None:
        if self.now > limit:
            return
        while stop not in self.triggered and self.pending \
                and self.pending[0][0] <= limit:
            self.fire_next()


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.model = ReferenceScheduler()
        self.log = []
        self.events = {}     # label -> kernel Event
        self.timers = []     # labels of Timeouts (cancellable)
        self.reserved = []   # reserved, not yet armed sequence numbers
        self._labels = 0

    # -- the kernel side ------------------------------------------------

    def _schedule(self, spec, when=None, seq=None) -> str:
        kind, delay, children = spec
        self._labels += 1
        label = "e%d" % self._labels
        sim = self.sim
        if kind == "succeed" and when is None:
            event = sim.event()
            event.succeed(label)
        else:
            if when is None:
                event = sim.timeout(delay, value=label)
            else:
                event = sim.timeout_at(when, value=label, seq=seq)
            self.timers.append(label)

        def fire(_event, label=label, children=children):
            self.log.append((label, sim.now))
            for child in children:
                self._schedule(child)

        event.add_callback(fire)
        self.events[label] = event
        return label

    # -- rules ----------------------------------------------------------

    @rule(spec=SPECS)
    def schedule(self, spec):
        assert self._schedule(spec) == self.model.schedule(spec)

    @rule(offset=st.sampled_from(DELAYS), spec=SPECS)
    def timeout_at(self, offset, spec):
        when = self.sim.now + offset
        spec = ("timeout",) + spec[1:]
        assert self._schedule(spec, when=when) \
            == self.model.schedule(spec, when=when)

    @rule()
    def reserve_seq(self):
        seq = self.sim.reserve_seq()
        assert seq == self.model.draw()
        self.reserved.append(seq)

    @precondition(lambda self: self.reserved)
    @rule(pick=st.integers(0, 7), offset=st.sampled_from(DELAYS),
          spec=SPECS)
    def timeout_at_reserved(self, pick, offset, spec):
        seq = self.reserved.pop(pick % len(self.reserved))
        when = self.sim.now + offset
        if (when, seq) < self.model.last:
            return  # that position has already passed: not schedulable
        spec = ("timeout",) + spec[1:]
        assert self._schedule(spec, when=when, seq=seq) \
            == self.model.schedule(spec, when=when, seq=seq)

    @precondition(lambda self: self.timers)
    @rule(pick=st.integers(0, 63))
    def cancel(self, pick):
        label = self.timers[pick % len(self.timers)]
        assert self.events[label].cancel() == self.model.cancel(label)

    @rule(offset=OFFSETS)
    def run(self, offset):
        if offset is None:
            self.sim.run()
            self.model.drain(None, math.inf)
            return
        until = self.sim.now + offset
        self.sim.run(until)
        self.model.drain(None, until)
        self.model.now = until

    @rule()
    def run_backwards_is_refused(self):
        with pytest.raises(SimulationError):
            self.sim.run(self.sim.now - 0.25)

    @rule(pick=st.integers(0, 63), offset=LIMITS)
    def run_until_complete(self, pick, offset):
        labels = sorted(self.events)
        if labels and pick % 4:
            label = labels[pick % len(labels)]
            target = self.events[label]
        else:
            label, target = None, self.sim.event()  # never triggered
        limit = math.inf if offset is None else self.sim.now + offset
        try:
            value = self.sim.run_until_complete(target, limit)
        except SimulationError:
            value = SimulationError
        self.model.drain(label, limit)
        expected = (label if label in self.model.triggered
                    else SimulationError)
        assert value == expected

    @rule()
    def step(self):
        if self.model.pending:
            self.sim.step()
            self.model.fire_next()
        else:
            with pytest.raises(IndexError):
                self.sim.step()

    # -- invariants -----------------------------------------------------

    @invariant()
    def same_history(self):
        assert self.log == self.model.log
        assert self.sim.now == self.model.now
        assert self.sim.events_processed == self.model.fired

    @invariant()
    def same_pending_set(self):
        pending = self.model.pending
        assert self.sim.heap_size + self.sim.ready_size == len(pending)
        assert self.sim.peek() == (pending[0][0] if pending else math.inf)


KernelMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
test_kernel_matches_reference_scheduler = KernelMachine.TestCase
