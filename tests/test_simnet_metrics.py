"""Latency metrics: percentiles, candlesticks, trimming."""

from __future__ import annotations

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.metrics import (
    CandlestickSummary,
    LatencyRecorder,
    percentile,
    trim_window,
)


def test_percentile_matches_numpy():
    data = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
    for fraction in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        assert percentile(data, fraction) == pytest.approx(
            numpy.percentile(data, fraction * 100)
        )


def test_percentile_single_sample():
    assert percentile([7.0], 0.5) == 7.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_recorder_records_and_summarizes():
    recorder = LatencyRecorder("test")
    for index in range(1, 101):
        recorder.record(float(index), index / 1000.0)
    summary = recorder.summarize()
    assert summary.count == 100
    assert summary.median == pytest.approx(0.0505, abs=1e-3)
    assert summary.p25 < summary.median < summary.p75


def test_recorder_rejects_negative_latency():
    with pytest.raises(ValueError, match="negative"):
        LatencyRecorder().record(1.0, -0.1)


def test_whiskers_exclude_outliers():
    recorder = LatencyRecorder()
    values = [0.01] * 50 + [0.011] * 50 + [10.0]  # one extreme outlier
    for index, value in enumerate(values):
        recorder.record(float(index), value)
    summary = recorder.summarize()
    assert summary.whisker_high < 10.0
    assert summary.maximum == 10.0


def test_whiskers_within_data():
    recorder = LatencyRecorder()
    for index in range(20):
        recorder.record(float(index), 0.001 * (index + 1))
    summary = recorder.summarize()
    assert summary.whisker_low >= 0.001
    assert summary.whisker_high <= 0.020


def test_trimmed_selects_window():
    recorder = LatencyRecorder()
    for t in range(100):
        recorder.record(float(t), 0.5)
    assert len(recorder.trimmed(10.0, 20.0)) == 11


def test_extend_merges_runs():
    one, two = LatencyRecorder(), LatencyRecorder()
    one.record(1.0, 0.1)
    two.record(2.0, 0.2)
    one.extend(two)
    assert one.latencies() == [0.1, 0.2]


def test_summarize_empty_rejected():
    with pytest.raises(ValueError, match="no samples"):
        LatencyRecorder("empty").summarize()


def test_trim_window():
    assert trim_window(0.0, 300.0, 15.0) == (15.0, 285.0)


def test_trim_window_too_short_rejected():
    with pytest.raises(ValueError, match="too short"):
        trim_window(0.0, 20.0, 15.0)


def test_candlestick_iqr():
    summary = CandlestickSummary(
        p25=0.010, median=0.020, p75=0.030, whisker_low=0.005,
        whisker_high=0.045, count=10, mean=0.021, p99=0.044, maximum=0.050,
    )
    assert summary.iqr == pytest.approx(0.020)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=60))
def test_candlestick_invariants(values):
    recorder = LatencyRecorder()
    for index, value in enumerate(values):
        recorder.record(float(index), value)
    summary = recorder.summarize()
    assert summary.p25 <= summary.median <= summary.p75
    # Interpolated quartiles may fall between data points; the whisker
    # endpoints are actual data, so compare against the median.
    assert summary.whisker_low <= summary.median
    assert summary.whisker_high >= summary.median
    assert summary.whisker_high <= summary.maximum
    assert min(values) <= summary.mean <= max(values)


class _TupleRecorder:
    """The recorder as one list of ``(time, latency)`` tuples."""

    def __init__(self) -> None:
        self.samples = []

    def record(self, completion_time, latency):
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.samples.append((completion_time, latency))

    def extend(self, other):
        self.samples.extend(other.samples)

    def latencies(self):
        return [latency for _, latency in self.samples]

    def trimmed(self, start, end):
        return [lat for t, lat in self.samples if start <= t <= end]


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(st.tuples(st.floats(-1e6, 1e6, **_finite), st.floats(0.0, 1e3, **_finite)), max_size=40),
    second=st.lists(st.tuples(st.floats(-1e6, 1e6, **_finite), st.floats(0.0, 1e3, **_finite)), max_size=40),
    window=st.tuples(st.floats(-1e6, 1e6, **_finite), st.floats(-1e6, 1e6, **_finite)),
    rejected=st.floats(max_value=-1e-300, **_finite),
)
def test_recorder_returns_what_a_tuple_list_returns(first, second, window, rejected):
    recorder, other = LatencyRecorder("arrays"), LatencyRecorder()
    reference, reference_other = _TupleRecorder(), _TupleRecorder()
    for sample in first:
        recorder.record(*sample)
        reference.record(*sample)
    for sample in second:
        other.record(*sample)
        reference_other.record(*sample)
    with pytest.raises(ValueError, match="negative"):
        recorder.record(0.0, rejected)
    recorder.extend(other)
    reference.extend(reference_other)

    assert len(recorder.latencies()) == len(reference.samples)
    assert recorder.latencies() == reference.latencies()
    assert recorder.trimmed(*window) == reference.trimmed(*window)
    if reference.samples:
        assert recorder.summarize() == recorder.summarize(reference.latencies())
    else:
        with pytest.raises(ValueError, match="no samples"):
            recorder.summarize()
