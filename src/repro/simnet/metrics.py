"""Latency and throughput metrics matching the paper's methodology.

The paper reports round-trip latency distributions as candlestick
charts: box = 25th/75th percentiles, middle line = median, whiskers =
most distant point within 1.5 IQR of the box (footnote 7).  Samples
from the first and last 15 seconds of each measurement period are
trimmed (§8, "Metrics and workload"), and each configuration is run
several times with the distributions aggregated.  Every experiment,
the million-request scale sweep included, keeps its samples exactly in
one :class:`LatencyRecorder` and summarizes them with
:func:`percentile`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LatencyRecorder",
    "CandlestickSummary",
    "percentile",
    "trim_window",
]


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted *sorted_samples*."""
    if not sorted_samples:
        raise ValueError("cannot take a percentile of no samples")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = fraction * (len(sorted_samples) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_samples[lower]
    weight = position - lower
    lower_value = sorted_samples[lower]
    # lerp via the delta form: exact when both endpoints are equal
    # (the a*(1-w)+b*w form can round away from a == b and push an
    # interpolated quartile above the data's own maximum).
    return lower_value + weight * (sorted_samples[upper] - lower_value)


@dataclass(frozen=True)
class CandlestickSummary:
    """Five-value summary used by the paper's candlestick charts."""

    p25: float
    median: float
    p75: float
    whisker_low: float
    whisker_high: float
    count: int
    mean: float
    p99: float
    maximum: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.p75 - self.p25

@dataclass
class LatencyRecorder:
    """Accumulates (completion_time, latency) samples for one series.

    Exact, in two unboxed ``array('d')`` columns: 16 bytes a sample and
    nothing for the garbage collector to track, so the scale sweep's
    top point (1M requests) holds its samples in 16 MB.
    """

    name: str = "latency"
    _times: array = field(default_factory=lambda: array("d"), init=False, repr=False)
    _latencies: array = field(default_factory=lambda: array("d"), init=False, repr=False)

    def record(self, completion_time: float, latency: float) -> None:
        """Add one round-trip sample."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._times.append(completion_time)
        self._latencies.append(latency)

    def extend(self, other: "LatencyRecorder") -> None:
        """Merge another recorder's samples (multi-run aggregation)."""
        self._times.extend(other._times)
        self._latencies.extend(other._latencies)

    def latencies(self) -> List[float]:
        """All recorded latencies, in completion order."""
        return self._latencies.tolist()

    def trimmed(self, start: float, end: float) -> List[float]:
        """Latencies of samples completing within ``[start, end]``."""
        return [lat for t, lat in zip(self._times, self._latencies) if start <= t <= end]

    def summarize(self, values: Optional[Iterable[float]] = None) -> CandlestickSummary:
        """Compute the candlestick summary over *values* (or everything)."""
        data = sorted(values if values is not None else self.latencies())
        if not data:
            raise ValueError(f"recorder {self.name!r} has no samples to summarize")
        p25 = percentile(data, 0.25)
        median = percentile(data, 0.50)
        p75 = percentile(data, 0.75)
        iqr = p75 - p25
        low_bound = p25 - 1.5 * iqr
        high_bound = p75 + 1.5 * iqr
        whisker_low = min(v for v in data if v >= low_bound)
        whisker_high = max(v for v in data if v <= high_bound)
        # Exact-summation mean, clamped to the data range: the final
        # division can round 1 ulp past min/max (e.g. three identical
        # samples), and a mean outside its own data is nonsense.
        mean = min(max(math.fsum(data) / len(data), data[0]), data[-1])
        return CandlestickSummary(
            p25=p25,
            median=median,
            p75=p75,
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            count=len(data),
            mean=mean,
            p99=percentile(data, 0.99),
            maximum=data[-1],
        )


def trim_window(phase_start: float, phase_end: float, trim: float = 15.0) -> Tuple[float, float]:
    """The paper's measurement window: trim *trim* seconds at each end."""
    start = phase_start + trim
    end = phase_end - trim
    if end <= start:
        raise ValueError(
            f"phase [{phase_start}, {phase_end}] too short for a {trim}s trim at each end"
        )
    return start, end
