"""Unit tests for the batch-capable kernel timer path.

A :class:`BatchTimeout` carries many reserved-seq callbacks under one
armed timer; the contract is that firing order and instants are
exactly what dedicated per-entry :class:`Timeout` objects would have
produced.  These tests pin that contract, including batches whose head
is at the current instant; the property test at the end compares a
batch with per-entry ``timeout_at`` timers on drawn schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import BatchTimeout, Event, Simulator


def entries_for(sim, specs, log):
    """Build sorted [at, seq, callback] entries from (at, tag) specs,
    reserving seqs in spec order (the contiguous block contract)."""
    entries = [[at, sim.reserve_seq(),
                lambda _e, tag=tag: log.append((sim.now, tag))]
               for at, tag in specs]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def test_batch_fires_each_entry_at_its_instant():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (2.0, "b"),
                                        (3.0, "c")], log))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
    assert sim.now == 3.0


def test_same_instant_entries_consumed_inline_in_seq_order():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (1.0, "b"),
                                        (1.0, "c"), (2.0, "d")], log))
    events_before = sim.events_processed
    sim.run()
    assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (2.0, "d")]
    # The whole same-instant group cost one kernel event, the
    # re-armed tail another.
    assert sim.events_processed - events_before == 2


def test_batch_occupies_one_heap_slot():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(
        sim, [(float(i), i) for i in range(1, 21)], log))
    assert sim.heap_size == 1
    sim.run()
    assert len(log) == 20


def test_unsorted_send_order_is_sorted_into_arrival_order():
    sim = Simulator()
    log = []
    # Send order a, b, c but arrival instants inverted: the seq drawn
    # first belongs to the *latest* arrival, exactly like variable
    # message sizes invert arrival order on a real burst.
    BatchTimeout(sim, entries_for(sim, [(3.0, "a"), (1.0, "b"),
                                        (2.0, "c")], log))
    sim.run()
    assert log == [(1.0, "b"), (2.0, "c"), (3.0, "a")]


def test_batch_matches_dedicated_timeouts_against_foreign_timers():
    """The pinning case: interleave a batch with foreign timers and
    zero-delay cascades, and compare the observable firing order
    against the same schedule built from per-entry Timeouts."""

    def drive(batched):
        sim = Simulator()
        log = []

        def note(tag):
            return lambda _e: log.append((sim.now, tag))

        # Foreign timers scheduled before the batch draw lower seqs.
        sim.timeout(1.0).add_callback(note("early-foreign"))
        sim.timeout(2.0).add_callback(note("tie-foreign"))
        specs = [(1.0, "b0"), (2.0, "b1"), (2.0, "b2"), (4.0, "b3")]
        if batched:
            entries = [[at, sim.reserve_seq(), note(tag)]
                       for at, tag in specs]
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            BatchTimeout(sim, entries)
        else:
            for at, tag in specs:
                sim.timeout_at(at).add_callback(note(tag))
        # And one scheduled after: larger seq, fires after batch ties.
        sim.timeout_at(2.0).add_callback(note("late-foreign"))
        sim.run()
        return log

    assert drive(batched=True) == drive(batched=False)


def test_same_instant_batch_admitted_to_run_queue():
    sim = Simulator()
    log = []

    def spark():
        yield sim.timeout(1.0)
        # Batch armed *at* the current instant: the whole vector fires
        # now, before the process's own later timer.
        BatchTimeout(sim, entries_for(sim, [(1.0, "x"), (1.0, "y")], log))
        yield sim.timeout(1.0)

    sim.process(spark())
    sim.run()
    assert log == [(1.0, "x"), (1.0, "y")]


def test_run_queue_order_preserved_around_same_instant_batch():
    sim = Simulator()
    log = []

    def spark():
        yield sim.timeout(1.0)
        before = Event(sim)
        before.add_callback(lambda _e: log.append("before"))
        before.succeed()
        BatchTimeout(sim, entries_for(sim, [(1.0, "batch")], log))
        after = Event(sim)
        after.add_callback(lambda _e: log.append("after"))
        after.succeed()

    sim.process(spark())
    sim.run()
    assert log == ["before", (1.0, "batch"), "after"]


def test_callbacks_may_schedule_more_work_inline():
    sim = Simulator()
    log = []

    def chase(_event):
        log.append(("fired", sim.now))
        sim.timeout(0.5).add_callback(
            lambda _e: log.append(("chased", sim.now)))

    entries = [[1.0, sim.reserve_seq(), chase],
               [1.0, sim.reserve_seq(),
                lambda _e: log.append(("second", sim.now))]]
    BatchTimeout(sim, entries)
    sim.run()
    # The zero-delay follow-up scheduled by the first callback fires
    # *after* the same-instant second entry (larger seq), exactly as
    # with dedicated timers.
    assert log == [("fired", 1.0), ("second", 1.0), ("chased", 1.5)]


def test_empty_batch_is_a_noop():
    sim = Simulator()
    BatchTimeout(sim, [])
    sim.run()
    assert sim.events_processed == 0


def test_pending_counts_down():
    sim = Simulator()
    log = []
    batch = BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (2.0, "b")],
                                          log))
    assert batch.pending == 2
    sim.run(until=1.5)
    assert batch.pending == 1
    sim.run()
    assert batch.pending == 0


def _raising_schedule(batched):
    sim = Simulator()
    log = []

    def boom(_event):
        # A same-instant event queued before the raise draws a newer
        # seq than the entries after it, so it must fire after them.
        queued = sim.event()
        queued.add_callback(lambda _e: log.append((sim.now, "queued")))
        queued.succeed()
        raise RuntimeError("callback exploded")

    def note(tag):
        return lambda _e: log.append((sim.now, tag))

    specs = [(1.0, boom), (1.0, note("same-instant")), (2.0, note("later"))]
    if batched:
        BatchTimeout(sim, [[at, sim.reserve_seq(), callback]
                           for at, callback in specs])
    else:
        for at, callback in specs:
            sim.timeout_at(at).add_callback(callback)
    with pytest.raises(RuntimeError, match="callback exploded"):
        sim.run()
    sim.run()
    return log, sim.heap_size


def test_raising_callback_does_not_strand_later_entries():
    # A raising callback propagates out of run(), exactly as with
    # per-entry timers, and a second run() still delivers the rest.
    assert _raising_schedule(batched=True) \
        == _raising_schedule(batched=False) \
        == ([(1.0, "same-instant"), (1.0, "queued"), (2.0, "later")], 0)


# -- property: a batch is indistinguishable from per-entry timers ------------

#: Delays and clock steps on a quarter grid, so batch entries, foreign
#: timers and ``run(until)`` stops keep landing on the same instants;
#: a zero delay puts a batch head at the current instant.
_DELAYS = (0.0, 0.25, 0.5, 1.0)

_BATCH = st.lists(st.sampled_from(_DELAYS), min_size=1, max_size=6)

_OPS = st.lists(st.one_of(
    st.tuples(st.just("batch"), _BATCH),
    st.tuples(st.just("later-batch"),
              st.tuples(st.sampled_from(_DELAYS), _BATCH)),
    st.tuples(st.just("timer"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("event"), st.none()),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 0.5)))),
    max_size=25)


def _drive_batches(ops, batched):
    """Replay ``ops``, building each burst either as one BatchTimeout or
    as per-entry ``timeout_at`` timers; return the firing log.

    A burst's delays are in send order (the order its seqs are
    reserved), which differs from arrival order whenever they are not
    sorted.  ``later-batch`` builds its burst from inside a foreign
    timer callback, mid-drain, with same-instant events queued."""
    sim = Simulator()
    log = []

    def note(label):
        return lambda _e: log.append((label, sim.now))

    def burst(label, delays):
        specs = [(sim.now + delay, note("%s.%d" % (label, i)))
                 for i, delay in enumerate(delays)]
        if batched:
            entries = [[at, sim.reserve_seq(), callback]
                       for at, callback in specs]
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            BatchTimeout(sim, entries)
        else:
            for at, callback in specs:
                sim.timeout_at(at).add_callback(callback)

    for index, (op, arg) in enumerate(ops):
        label = "%s-%d" % (op, index)
        if op == "batch":
            burst(label, arg)
        elif op == "later-batch":
            delay, delays = arg
            sim.timeout(delay).add_callback(
                lambda _e, label=label, delays=delays: burst(label, delays))
        elif op == "timer":
            sim.timeout(arg).add_callback(note(label))
        elif op == "event":
            event = sim.event()
            event.add_callback(note(label))
            event.succeed()
        else:
            sim.run(until=sim.now + arg)
    sim.run()
    assert sim.heap_size == 0 and sim.ready_size == 0
    return log


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_batch_fires_like_per_entry_timers(ops):
    assert _drive_batches(ops, batched=True) \
        == _drive_batches(ops, batched=False)
