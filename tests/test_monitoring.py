"""Metrics sampled over virtual time (``repro.telemetry.registry``).

Run-lifecycle behaviour of the ``Scraper`` (disarm when the run drains,
stop→start never double-schedules) is in ``test_telemetry_registry.py``.
"""

from __future__ import annotations

import pytest

from repro.simnet.clock import EventLoop
from repro.telemetry.registry import MetricRegistry, Scraper, TimeSeries


def _scraped(interval, callback, until):
    loop = EventLoop()
    registry = MetricRegistry()
    gauge = registry.gauge("g", callback=callback)
    Scraper(loop=loop, registry=registry, interval=interval).start()
    loop.schedule_at(until, lambda: None)  # the scraper re-arms only while work is pending
    loop.run_until(until)
    return gauge.series


def test_collector_samples_on_interval():
    """One callback read per tick: the series is exactly 1..5."""
    reads = iter(range(1, 100))
    series = _scraped(1.0, lambda: next(reads), until=5.5)
    assert series.values() == [1, 2, 3, 4, 5]


def test_sample_timestamps_are_virtual_time():
    series = _scraped(2.0, lambda: 1.0, until=6.5)
    assert [time for time, _ in series.points] == [2.0, 4.0, 6.0]


def test_series_window_and_stats():
    series = TimeSeries(name="s")
    for time in range(10):
        series.append(float(time), float(time * 2))
    assert series.window(2.0, 4.0) == [4.0, 6.0, 8.0]
    assert series.mean() == pytest.approx(9.0)
    assert series.last() == 18.0


def test_series_stats_require_samples():
    with pytest.raises(ValueError):
        TimeSeries(name="empty").mean()
