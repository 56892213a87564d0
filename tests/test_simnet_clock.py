"""Event loop: ordering, cancellation, time semantics."""

from __future__ import annotations

import pytest

from repro.simnet.clock import EventLoop, SimulationError


def test_starts_at_time_zero():
    assert EventLoop().now == 0.0


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, lambda: fired.append("late"))
    loop.schedule(1.0, lambda: fired.append("early"))
    loop.run()
    assert fired == ["early", "late"]


def test_same_time_events_fire_fifo():
    loop = EventLoop()
    fired = []
    for index in range(5):
        loop.schedule(1.0, lambda i=index: fired.append(i))
    loop.run()
    assert fired == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(3.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [3.5]
    assert loop.now == 3.5


def test_nested_scheduling():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: loop.schedule(1.0, lambda: fired.append(loop.now)))
    loop.run()
    assert fired == [2.0]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError, match="past"):
        EventLoop().schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError, match="current time"):
        loop.schedule_at(0.5, lambda: None)


def test_cancelled_events_are_skipped():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(1.0, lambda: fired.append("cancelled"))
    loop.schedule(2.0, lambda: fired.append("kept"))
    handle.cancel()
    loop.run()
    assert fired == ["kept"]
    assert handle.cancelled


def test_run_until_executes_only_due_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(5.0, lambda: fired.append("b"))
    loop.run_until(2.0)
    assert fired == ["a"]
    assert loop.now == 2.0
    loop.run()
    assert fired == ["a", "b"]


def test_run_until_does_not_rewind():
    loop = EventLoop()
    loop.schedule(4.0, lambda: None)
    loop.run()
    loop.run_until(2.0)
    assert loop.now == 4.0


def test_event_budget_guard():
    loop = EventLoop()

    def reschedule():
        loop.schedule(0.1, reschedule)

    loop.schedule(0.1, reschedule)
    with pytest.raises(SimulationError, match="budget"):
        loop.run(max_events=100)


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(3):
        loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.events_processed == 3
