"""Calendar engine vs seed reference heap: equivalence + introspection.

The calendar-queue :class:`EventLoop` must be observationally
indistinguishable from the seed implementation preserved as the test
oracle :class:`HeapEventLoop`: identical event order, identical clocks,
identical counters, for any interleaving of schedule / post / cancel /
step / run_until — including callbacks that schedule into the window
currently being drained and cancel not-yet-fired events.  Hypothesis
drives both engines through random interleavings and compares the full
observable trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.clock import (
    DEFAULT_SLOT_WIDTH,
    EventHandle,
    EventLoop,
    SimulationError,
)
from tests.oracles.heap_event_loop import HeapEventLoop

BOTH_ENGINES = pytest.mark.parametrize("engine_cls", [EventLoop, HeapEventLoop],
                                       ids=["loop", "oracle"])


# ---------------------------------------------------------------------------
# Property: identical observable behaviour under random interleavings.
# ---------------------------------------------------------------------------

_DELAYS = st.floats(min_value=0.0, max_value=0.01, allow_nan=False, allow_infinity=False)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, st.booleans()),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("run_until"), _DELAYS),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("run_some"), st.integers(min_value=1, max_value=16)),
    ),
    min_size=1,
    max_size=60,
)


def _drive(engine_cls, ops):
    """Apply *ops* to a fresh engine; return the observable trace."""
    loop = engine_cls()
    log = []
    handles = []
    counter = [0]

    def make_callback(spawn_child):
        tag = counter[0]
        counter[0] += 1

        def callback():
            log.append((tag, round(loop.now, 9)))
            if spawn_child:
                # Schedule from inside a callback — possibly into the
                # slot currently being drained — and cancel an older
                # pending handle, the churn pattern proxies generate.
                handles.append(loop.schedule(0.0003, make_callback(False)))
                if handles:
                    handles[len(log) % len(handles)].cancel()

        return callback

    for op in ops:
        kind = op[0]
        try:
            if kind == "schedule":
                handles.append(loop.schedule(op[1], make_callback(op[2])))
            elif kind == "post":
                loop.post(op[1], make_callback(False))
            elif kind == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            elif kind == "run_until":
                loop.run_until(loop.now + op[1])
            elif kind == "step":
                loop.step()
            elif kind == "run_some":
                loop.run(max_events=op[1])
        except SimulationError as error:
            log.append(("error", str(error)))
    loop.run(max_events=100_000)
    return {
        "log": log,
        "now": round(loop.now, 9),
        "events_processed": loop.events_processed,
        "pending": loop.pending,
    }


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_engines_trace_identically(ops):
    assert _drive(EventLoop, ops) == _drive(HeapEventLoop, ops)


@settings(max_examples=50, deadline=None)
@given(
    ops=_OPS,
    slot_width=st.sampled_from([0.00005, DEFAULT_SLOT_WIDTH, 0.01, 1.0]),
)
def test_slot_width_never_changes_semantics(ops, slot_width):
    """Any slot width replays the same trace (it only shifts cost)."""
    wide = _drive(lambda: EventLoop(slot_width=slot_width), ops)
    assert wide == _drive(HeapEventLoop, ops)


# ---------------------------------------------------------------------------
# Determinism contract details, on both engines.
# ---------------------------------------------------------------------------

@BOTH_ENGINES
def test_post_and_schedule_share_fifo_order(engine_cls):
    loop = engine_cls()
    fired = []
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.post(1.0, lambda: fired.append("b"))
    loop.schedule(1.0, lambda: fired.append("c"))
    loop.post_at(1.0, lambda: fired.append("d"))
    loop.run()
    assert fired == ["a", "b", "c", "d"]


@BOTH_ENGINES
def test_run_until_ignores_cancelled_head_past_boundary(engine_cls):
    """A cancelled head must not drag a later live event over the limit.

    Regression for a seed bug: ``run_until`` peeked the head timestamp
    to decide "one more step", but when that head was cancelled,
    ``step`` skipped it and executed the next live event even if it
    lay beyond the boundary.
    """
    loop = engine_cls()
    fired = []
    doomed = loop.schedule(1.0, lambda: fired.append("cancelled"))
    loop.schedule(5.0, lambda: fired.append("late"))
    doomed.cancel()
    loop.run_until(2.0)
    assert fired == []
    assert loop.now == 2.0
    loop.run_until(5.0)
    assert fired == ["late"]


@BOTH_ENGINES
def test_schedule_into_active_window_preserves_order(engine_cls):
    """Events scheduled mid-drain land in exact (time, seq) order."""
    loop = engine_cls()
    fired = []

    def first():
        fired.append("first")
        # Lands in the same slot/window currently being drained.
        loop.schedule(0.0, lambda: fired.append("child-now"))
        loop.post(0.00001, lambda: fired.append("child-soon"))

    loop.schedule(1.0, first)
    loop.schedule(1.0, lambda: fired.append("second"))
    loop.run()
    assert fired == ["first", "second", "child-now", "child-soon"]


@BOTH_ENGINES
def test_run_budget_error_reports_events_processed(engine_cls):
    loop = engine_cls()

    def rearm():
        loop.post(0.001, rearm)

    loop.post(0.0, rearm)
    with pytest.raises(SimulationError) as excinfo:
        loop.run(max_events=25)
    message = str(excinfo.value)
    assert "25" in message  # the budget
    assert "events processed" in message  # satellite: include progress


# ---------------------------------------------------------------------------
# Live-count bookkeeping, compaction, and introspection.
# ---------------------------------------------------------------------------

@BOTH_ENGINES
def test_pending_excludes_cancelled_events(engine_cls):
    loop = engine_cls()
    keep = loop.schedule(1.0, lambda: None)
    doomed = [loop.schedule(2.0, lambda: None) for _ in range(5)]
    assert loop.pending == 6
    for handle in doomed:
        handle.cancel()
    assert loop.pending == 1
    stats = loop.queue_stats()
    assert stats["live"] == 1
    assert stats["cancels_total"] == 5
    assert keep.cancelled is False


@BOTH_ENGINES
def test_double_cancel_counts_once(engine_cls):
    loop = engine_cls()
    handle = loop.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert loop.pending == 0
    assert loop.queue_stats()["cancels_total"] == 1


def test_compaction_sweeps_cancelled_entries():
    loop = EventLoop()
    keep = loop.schedule(100.0, lambda: None)
    doomed = [loop.schedule(50.0 + i * 0.001, lambda: None) for i in range(600)]
    for handle in doomed:
        handle.cancel()
    stats = loop.queue_stats()
    # Cancelled (600) outnumbers live (1) and exceeds the 256 floor, so
    # sweeps ran and only the post-last-sweep stragglers stay resident.
    assert stats["compactions"] >= 1
    assert stats["live"] == 1
    assert stats["cancelled"] < 256
    assert stats["queued"] == stats["live"] + stats["cancelled"]
    keep.cancel()
    loop.run()
    assert loop.events_processed == 0


def test_queue_stats_exposes_engine_and_depth():
    calendar = EventLoop()
    reference = HeapEventLoop()
    for loop in (calendar, reference):
        for index in range(10):
            loop.schedule(1.0 + index, lambda: None)
    assert calendar.queue_stats().keys() == reference.queue_stats().keys()
    assert calendar.queue_stats()["peak_pending"] == reference.queue_stats()["peak_pending"] == 10
    assert calendar.queue_stats()["slots"] >= 1


def test_event_handle_is_slotted():
    assert not hasattr(EventHandle(1.0, 0, lambda: None), "__dict__")


def test_calendar_slot_width_validation():
    with pytest.raises(SimulationError):
        EventLoop(slot_width=0.0)
