"""Unit tests for the pooled guard-deadline subsystem.

The contract under test: a pool keeps at most one kernel timer armed
however many deadlines are pending, and pooling is *invisible* to
event ordering — every expiry fires at exactly the ``(time, seq)``
position a dedicated per-call Timeout would have occupied.  Several
tests therefore run the same scenario twice, once with a pool and once
with the per-call-timer reference (``tests/util.PerCallTimerPool``),
and require identical firing orders; the property tests at the end do
so for random add/cancel/advance sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.telemetry import MetricsRegistry
from repro.sim.deadlines import (FifoDeadlinePool, OrderedDeadlinePool,
                                 shared_pool)
from repro.sim.kernel import Simulator
from tests.util import PerCallTimerPool, check_golden, digest


def _collector(order, sim, label):
    return lambda: order.append((label, sim.now))


# -- the single-armed-timer property ----------------------------------------


def test_fifo_pool_keeps_one_kernel_timer_for_many_deadlines():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 10.0)
    entries = [pool.add(lambda: None) for _ in range(500)]
    # 500 pending deadlines, one armed kernel timer.
    assert pool.live == 500
    assert sim.heap_size == 1
    assert pool.timer_arms == 1
    for entry in entries:
        assert pool.cancel(entry)
    assert pool.live == 0
    # Cancel is lazy: the armed timer is left to fire and clean up.
    sim.run()
    assert len(pool) == 0
    assert sim.heap_size == 0
    assert sim.stale_timer_count == 0


def test_fifo_steady_state_arms_once_per_timeout_window():
    # The UdpRpcClient pattern: arm, resolve quickly, arm the next.
    # The kernel timer should be re-armed roughly once per timeout
    # interval, not once per call.
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)

    def churn():
        for _ in range(1000):
            entry = pool.add(lambda: None)
            yield sim.timeout(0.01)  # "reply" long before the deadline
            pool.cancel(entry)

    sim.process(churn())
    sim.run()
    # 1000 guarded calls over 10 simulated seconds with a 1s timeout:
    # on the order of ten kernel arms, not a thousand.
    assert pool.timer_arms <= 20
    assert pool.expired_total == 0
    assert pool.live == 0 and len(pool) == 0


def test_fifo_pool_rejects_negative_delay_but_allows_zero():
    from repro.sim.kernel import SimulationError

    with pytest.raises(SimulationError):
        FifoDeadlinePool(Simulator(), -1.0)
    # Zero is degenerate but legal: guards expire at the instant they
    # are armed (FIFO ordering still holds on a monotonic clock).
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 0.0)
    order = []
    pool.add(_collector(order, sim, "a"))
    pool.add(_collector(order, sim, "b"))
    sim.run()
    assert [label for label, _t in order] == ["a", "b"]
    assert all(t == 0.0 for _label, t in order)


# -- expiry order and (time, seq) exactness ---------------------------------


def _fifo_tie_order(make_pool):
    """Two same-instant guard expiries with an unrelated timer armed
    between them: the firing order must interleave by arming order."""
    sim = Simulator()
    order = []
    pool = make_pool(sim)
    pool.add(_collector(order, sim, "guard-a"))
    sim.timeout_at(1.0).add_callback(
        lambda _e: order.append(("between", sim.now)))
    pool.add(_collector(order, sim, "guard-b"))
    sim.run()
    return order


def test_fifo_same_instant_expiries_interleave_exactly_like_timers():
    pooled = _fifo_tie_order(lambda sim: FifoDeadlinePool(sim, 1.0))
    reference = _fifo_tie_order(lambda sim: PerCallTimerPool(sim, 1.0))
    assert pooled == reference
    assert [label for label, _t in pooled] \
        == ["guard-a", "between", "guard-b"]
    assert all(t == 1.0 for _label, t in pooled)
    check_golden("deadlines.fifo_tie_order", digest(pooled))


def test_fifo_cancelled_middle_entry_is_skipped():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    order = []
    pool.add(_collector(order, sim, "a"))
    doomed = pool.add(_collector(order, sim, "b"))
    pool.add(_collector(order, sim, "c"))
    pool.cancel(doomed)
    sim.run()
    assert [label for label, _t in order] == ["a", "c"]
    assert pool.expired_total == 2
    assert pool.cancelled_total == 1


def test_cancel_is_idempotent_and_noop_after_expiry():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    entry = pool.add(lambda: None)
    assert pool.cancel(entry) is True
    assert pool.cancel(entry) is False  # second cancel: no double count
    expired = pool.add(lambda: None)
    sim.run()
    assert pool.expired_total == 1
    assert pool.cancel(expired) is False  # already fired
    assert pool.cancelled_total == 1
    assert pool.live == 0


def _ordered_tie_order(make_pool):
    """Mixed-delay guards meeting at one instant, with unrelated
    timers wedged between their sequence numbers."""
    sim = Simulator()
    order = []

    def note(label):
        return lambda _e: order.append((label, sim.now))

    def driver():
        yield sim.timeout(0.5)
        # All of these meet at t = 2.0 with interleaved seqs.
        pool = make_pool(sim)
        pool.add(_collector(order, sim, "guard-late-armed"), 1.5)
        sim.timeout_at(2.0).add_callback(note("plain-1"))
        pool.add(_collector(order, sim, "guard-2"), 1.5)
        sim.timeout_at(2.0).add_callback(note("plain-2"))
        # A shorter deadline arriving later: fires first overall.
        pool.add(_collector(order, sim, "guard-early"), 1.0)

    sim.process(driver())
    sim.run()
    return order


def test_ordered_same_instant_expiries_interleave_exactly_like_timers():
    pooled = _ordered_tie_order(OrderedDeadlinePool)
    assert [label for label, _t in pooled] == [
        "guard-early", "guard-late-armed", "plain-1", "guard-2", "plain-2"]
    assert [t for _label, t in pooled] == [1.5, 2.0, 2.0, 2.0, 2.0]
    assert pooled == _ordered_tie_order(PerCallTimerPool)
    check_golden("deadlines.ordered_tie_order", digest(pooled))


def test_ordered_pool_shelves_and_reclaims_on_undercut():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    pool.add(_collector(order, sim, "slow"), 10.0)
    assert pool.timer_arms == 1
    pool.add(_collector(order, sim, "fast"), 1.0)
    # The shorter deadline undercut the armed timer: the superseded
    # timer stays pending at its reserved position, to be re-used when
    # "slow" becomes earliest again, and a new one is armed for "fast".
    assert pool.timer_arms == 2
    assert pool.timer_shelved == 1
    assert sim.heap_size == 2
    sim.run(until=5.0)
    # "fast" fired and "slow" took back its own timer: nothing new in
    # the kernel heap.
    assert pool.timer_arms == 2
    assert sim.heap_size == 1
    sim.run()
    assert [label for label, _t in order] == ["fast", "slow"]
    assert [t for _label, t in order] == [1.0, 10.0]
    # "slow" fired through the reclaimed timer: no third kernel arm.
    assert pool.timer_arms == 2
    assert sim.heap_size == 0 and sim.stale_timer_count == 0
    # A later, longer deadline must NOT touch the armed timer.
    pool.add(_collector(order, sim, "later"), 5.0)
    arms = pool.timer_arms
    pool.add(_collector(order, sim, "latest"), 7.0)
    assert pool.timer_arms == arms


def test_ordered_pool_orphaned_shelved_timer_is_a_noop():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    doomed = pool.add(_collector(order, sim, "doomed"), 2.0)
    pool.add(_collector(order, sim, "fast"), 1.0)   # shelves "doomed"
    pool.add(_collector(order, sim, "slow"), 10.0)
    pool.cancel(doomed)
    assert (pool.timer_arms, pool.timer_shelved) == (2, 1)
    sim.run(until=1.5)
    # "fast" expired; "doomed" is dead, so "slow" got a timer of its
    # own, and the undercut timer for "doomed" is still pending.
    assert pool.timer_arms == 3
    assert sim.heap_size == 2
    sim.run(until=2.5)
    # That timer fired at t=2 as a pure no-op.
    assert order == [("fast", 1.0)]
    assert sim.heap_size == 1
    sim.run()
    assert [label for label, _t in order] == ["fast", "slow"]
    assert pool.live == 0 and len(pool) == 0
    assert (pool.timer_arms, pool.timer_shelved) == (3, 1)
    assert sim.heap_size == 0 and sim.stale_timer_count == 0


def test_orphaned_timer_firing_leaves_the_armed_timer_in_place():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    pool.cancel(pool.add(lambda: None, 2.0))  # its timer is orphaned
    pool.add(lambda: None, 1.0)               # undercuts it
    sim.run(until=1.5)                        # expires; pool empty
    pool.cancel(pool.add(lambda: None, 2.0))  # armed for t=3.5, dead
    sim.run(until=2.5)                        # the orphan fires at t=2
    assert (pool.timer_arms, pool.timer_shelved) == (3, 1)
    # The timer for t=3.5 is still the armed one, so a deadline at t=3
    # undercuts it rather than finding the pool disarmed.
    pool.add(lambda: None, 0.5)
    assert (pool.timer_arms, pool.timer_shelved) == (4, 2)
    sim.run()
    assert pool.live == 0 and len(pool) == 0 and sim.heap_size == 0


def test_ordered_pool_tie_keeps_armed_timer():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    pool.add(_collector(order, sim, "first"), 3.0)
    pool.add(_collector(order, sim, "second"), 3.0)  # tie: no re-arm
    assert pool.timer_arms == 1
    assert pool.timer_shelved == 0
    sim.run()
    assert [label for label, _t in order] == ["first", "second"]


# -- lazy cleanup and accounting --------------------------------------------


def test_dead_prefix_is_discarded_when_the_armed_timer_fires():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    fired = []
    entries = [pool.add(lambda: fired.append(True)) for _ in range(10)]
    for entry in entries:
        pool.cancel(entry)
    # All ten deadlines were cancelled, but lazily: the entries sit in
    # the pool heap until the armed timer fires and sweeps the dead
    # prefix.
    assert len(pool) == 10 and pool.live == 0
    sim.run()
    assert fired == []
    assert len(pool) == 0
    assert pool.expired_total == 0
    assert sim.heap_size == 0 and sim.stale_timer_count == 0


def test_pool_metrics_bind_and_drain():
    sim = Simulator()
    registry = MetricsRegistry()
    pool = FifoDeadlinePool(sim, 1.0)
    pool.bind_metrics(registry, "pool")
    kept = pool.add(lambda: None)
    pool.add(lambda: None)
    pool.cancel(kept)
    assert registry.get("pool.armed").value == 2
    assert registry.get("pool.cancelled").value == 1
    assert registry.get("pool.depth").value == 1
    sim.run()
    assert registry.get("pool.expired").value == 1
    assert registry.get("pool.depth").value == 0
    # Two kernel arms: the initial one (for the later-cancelled head)
    # and the re-arm for the live entry when that timer fired.
    assert registry.get("pool.timer_arms").value == 2
    assert registry.get("pool.timer_shelved").value == 0


def test_shared_pool_is_one_per_simulator():
    sim_a, sim_b = Simulator(), Simulator()
    pool_a = shared_pool(sim_a)
    assert shared_pool(sim_a) is pool_a
    assert shared_pool(sim_b) is not pool_a
    assert isinstance(pool_a, OrderedDeadlinePool)


def test_expiry_callback_errors_surface_like_timer_callbacks():
    # A failing expiry callback propagates out of run(), exactly as a
    # failing per-call timer callback would.
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)

    def boom():
        raise RuntimeError("expiry exploded")

    pool.add(boom)
    with pytest.raises(RuntimeError, match="expiry exploded"):
        sim.run()


def _raise_then_run(make_pool, fixed_delay):
    """A raising expiry followed by deadlines at the same and a later
    instant; return what a second run() fires, and what is left."""
    sim = Simulator()
    pool = make_pool(sim)
    order = []

    def add(payload, delay):
        return pool.add(payload) if fixed_delay else pool.add(payload, delay)

    def boom():
        # Queued before the raise: a newer seq than the same-instant
        # deadline after it, so it must fire after that deadline.
        queued = sim.event()
        queued.add_callback(lambda _e: order.append(("queued", sim.now)))
        queued.succeed()
        raise RuntimeError("expiry exploded")

    add(boom, 1.0)
    add(_collector(order, sim, "same-instant"), 1.0)
    sim.timeout(0.5).add_callback(
        lambda _e: add(_collector(order, sim, "later"), 1.0))
    with pytest.raises(RuntimeError, match="expiry exploded"):
        sim.run()
    sim.run()
    return order, sim.heap_size


@pytest.mark.parametrize("make_pool, fixed_delay", [
    (lambda sim: FifoDeadlinePool(sim, 1.0), True),
    (OrderedDeadlinePool, False),
], ids=["fifo", "ordered"])
def test_raising_expiry_does_not_strand_later_deadlines(make_pool,
                                                        fixed_delay):
    reference = _raise_then_run(lambda sim: PerCallTimerPool(sim, 1.0),
                                fixed_delay)
    assert reference == ([("same-instant", 1.0), ("queued", 1.0),
                          ("later", 1.5)], 0)
    assert _raise_then_run(make_pool, fixed_delay) == reference


def test_ordered_pool_rejects_negative_delay_without_poisoning():
    # Regression: a negative delay used to mutate the pool (heap entry
    # + live count) before the kernel arm raised, stranding a
    # past-dated entry that crashed the next firing of the shared
    # simulator-wide pool.
    from repro.sim.kernel import SimulationError

    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    with pytest.raises(SimulationError):
        pool.add(_collector(order, sim, "bad"), -0.5)
    assert pool.live == 0 and len(pool) == 0
    # The pool stays fully usable afterwards.
    pool.add(_collector(order, sim, "good"), 1.0)
    sim.run()
    assert [label for label, _t in order] == ["good"]


# -- property: pools are indistinguishable from per-call timers --------------

#: Delays and clock steps on a quarter grid: sums stay exact binary
#: fractions, so deadlines, unrelated timers and ``run(until)`` stops
#: keep landing on the very same instants.
_DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5)

_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("timer"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("event"), st.none()),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 0.5, 1.0)))),
    max_size=40)


def _drive_pool(ops, pool_factory, fixed_delay=None):
    """Replay ``ops`` against a pool, interleaved with unrelated timers
    and same-instant events; return the firing log (payload label and
    instant, in firing order) and every ``cancel`` result.  Nothing may
    be left pending once the final ``run()`` returns."""
    sim = Simulator()
    pool = pool_factory(sim)
    log, handles, cancels = [], [], []
    for index, (op, arg) in enumerate(ops):
        label = "%s-%d" % (op, index)
        if op == "add":
            payload = _collector(log, sim, label)
            handles.append(pool.add(payload) if fixed_delay is not None
                           else pool.add(payload, arg))
        elif op == "cancel":
            if handles:
                cancels.append(pool.cancel(handles[arg % len(handles)]))
        elif op == "timer":
            sim.timeout(arg).add_callback(
                lambda _e, label=label: log.append((label, sim.now)))
        elif op == "event":
            event = sim.event()
            event.add_callback(
                lambda _e, label=label: log.append((label, sim.now)))
            event.succeed()
        else:
            sim.run(until=sim.now + arg)
    sim.run()
    if not isinstance(pool, PerCallTimerPool):
        assert len(pool) == 0 and pool.live == 0
    assert sim.heap_size == 0 and sim.stale_timer_count == 0
    return log, cancels


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, delay=st.sampled_from(_DELAYS))
def test_fifo_pool_expires_like_per_call_timers(ops, delay):
    assert _drive_pool(ops, lambda sim: FifoDeadlinePool(sim, delay),
                       fixed_delay=delay) \
        == _drive_pool(ops, lambda sim: PerCallTimerPool(sim, delay),
                       fixed_delay=delay)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_ordered_pool_expires_like_per_call_timers(ops):
    assert _drive_pool(ops, OrderedDeadlinePool) \
        == _drive_pool(ops, PerCallTimerPool)
