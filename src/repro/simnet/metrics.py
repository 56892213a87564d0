"""Latency and throughput metrics matching the paper's methodology.

The paper reports round-trip latency distributions as candlestick
charts: box = 25th/75th percentiles, middle line = median, whiskers =
most distant point within 1.5 IQR of the box (footnote 7).  Samples
from the first and last 15 seconds of each measurement period are
trimmed (§8, "Metrics and workload"), and each configuration is run
several times with the distributions aggregated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LatencyRecorder",
    "SlottedLatencyRecorder",
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

    def row(self, unit_scale: float = 1000.0) -> str:
        """Render a fixed-width table row (default unit: milliseconds)."""
        return (
            f"p25={self.p25 * unit_scale:8.1f}  med={self.median * unit_scale:8.1f}"
            f"  p75={self.p75 * unit_scale:8.1f}  wlo={self.whisker_low * unit_scale:8.1f}"
            f"  whi={self.whisker_high * unit_scale:8.1f}  p99={self.p99 * unit_scale:8.1f}"
            f"  max={self.maximum * unit_scale:8.1f}  n={self.count}"
        )


@dataclass
class LatencyRecorder:
    """Accumulates (completion_time, latency) samples for one series.

    Exact, in two unboxed ``array('d')`` columns: 16 bytes a sample and
    nothing for the garbage collector to track.
    """

    name: str = "latency"
    _times: array = field(default_factory=lambda: array("d"), init=False, repr=False)
    _latencies: array = field(default_factory=lambda: array("d"), init=False, repr=False)

    def __len__(self) -> int:
        return len(self._latencies)

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


class SlottedLatencyRecorder:
    """Bounded-memory latency accumulator for million-request sweeps.

    :class:`LatencyRecorder` keeps every ``(time, latency)`` pair
    exactly, unboxed at 16 bytes a sample (a 6M-sample phase is 96 MB,
    untracked by the GC).  What still needs this recorder is the scale
    sweep's binned ``scale.json``.  It bins samples twice:

    * **time slots** of ``slot_seconds`` (so the paper's trim-15s
      windowing still works, at slot granularity), and
    * **log-spaced latency buckets** (``buckets_per_decade`` per decade
      between ``min_latency`` and ``max_latency``) per slot, plus exact
      per-slot count/sum/min/max.

    Memory is O(slots x buckets) integers regardless of sample count.
    ``summarize`` returns the same :class:`CandlestickSummary` shape
    with percentiles interpolated inside their bucket — the relative
    error is bounded by the bucket width (<6% per value at the default
    40 buckets/decade); count, mean, min and max are exact.  Entirely
    deterministic: same samples, same summary.
    """

    __slots__ = (
        "name",
        "slot_seconds",
        "min_latency",
        "max_latency",
        "buckets_per_decade",
        "_slots",
        "_nbuckets",
        "_log_min",
        "_inv_log_width",
        "count",
        "total",
    )

    def __init__(
        self,
        name: str = "latency",
        slot_seconds: float = 1.0,
        min_latency: float = 1e-4,
        max_latency: float = 100.0,
        buckets_per_decade: int = 40,
    ) -> None:
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        if not (0 < min_latency < max_latency):
            raise ValueError(f"need 0 < min_latency < max_latency, got {min_latency}..{max_latency}")
        if buckets_per_decade <= 0:
            raise ValueError(f"buckets_per_decade must be positive, got {buckets_per_decade}")
        self.name = name
        self.slot_seconds = slot_seconds
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.buckets_per_decade = buckets_per_decade
        decades = math.log10(max_latency / min_latency)
        #: bucket 0 = underflow (< min_latency); last = overflow.
        self._nbuckets = int(math.ceil(decades * buckets_per_decade)) + 2
        self._log_min = math.log10(min_latency)
        self._inv_log_width = buckets_per_decade
        #: slot index -> [bucket counts, count, sum, min, max]
        self._slots: Dict[int, list] = {}
        self.count = 0
        self.total = 0.0

    def _bucket_index(self, latency: float) -> int:
        if latency < self.min_latency:
            return 0
        index = int((math.log10(latency) - self._log_min) * self._inv_log_width) + 1
        last = self._nbuckets - 1
        return last if index > last else index

    def _bucket_bound(self, index: int) -> float:
        """Lower latency bound of bucket *index* (>= 1)."""
        return 10.0 ** (self._log_min + (index - 1) / self._inv_log_width)

    def record(self, completion_time: float, latency: float) -> None:
        """Add one round-trip sample (same signature as LatencyRecorder)."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        slot_key = int(completion_time / self.slot_seconds)
        slot = self._slots.get(slot_key)
        if slot is None:
            slot = self._slots[slot_key] = [[0] * self._nbuckets, 0, 0.0, latency, latency]
        slot[0][self._bucket_index(latency)] += 1
        slot[1] += 1
        slot[2] += latency
        if latency < slot[3]:
            slot[3] = latency
        if latency > slot[4]:
            slot[4] = latency
        self.count += 1
        self.total += latency

    def merge(self, other: "SlottedLatencyRecorder") -> None:
        """Fold another recorder's bins in (must share the geometry)."""
        if (
            other.slot_seconds != self.slot_seconds
            or other._nbuckets != self._nbuckets
            or other.min_latency != self.min_latency
        ):
            raise ValueError("cannot merge recorders with different binning geometry")
        for key, slot in other._slots.items():
            mine = self._slots.get(key)
            if mine is None:
                self._slots[key] = [list(slot[0]), slot[1], slot[2], slot[3], slot[4]]
            else:
                counts = mine[0]
                for i, c in enumerate(slot[0]):
                    counts[i] += c
                mine[1] += slot[1]
                mine[2] += slot[2]
                mine[3] = min(mine[3], slot[3])
                mine[4] = max(mine[4], slot[4])
        self.count += other.count
        self.total += other.total

    def _aggregate(self, start: Optional[float], end: Optional[float]) -> Tuple[List[int], int, float, float, float]:
        counts = [0] * self._nbuckets
        total_count = 0
        total_sum = 0.0
        minimum = math.inf
        maximum = -math.inf
        width = self.slot_seconds
        for key, slot in self._slots.items():
            if start is not None and key * width < start:
                continue
            if end is not None and (key + 1) * width > end + 1e-12:
                continue
            for i, c in enumerate(slot[0]):
                counts[i] += c
            total_count += slot[1]
            total_sum += slot[2]
            minimum = min(minimum, slot[3])
            maximum = max(maximum, slot[4])
        return counts, total_count, total_sum, minimum, maximum

    def _estimate_percentile(
        self, counts: List[int], total: int, fraction: float, minimum: float, maximum: float
    ) -> float:
        """Percentile from the histogram, interpolated within its bucket."""
        target = fraction * (total - 1) + 1.0 if total > 1 else 1.0
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                position = (target - cumulative) / bucket_count
                if index == 0:
                    low, high = minimum, min(self.min_latency, maximum)
                elif index == self._nbuckets - 1:
                    low, high = self.max_latency, maximum
                else:
                    low = self._bucket_bound(index)
                    high = self._bucket_bound(index + 1)
                value = low + position * (high - low)
                return min(max(value, minimum), maximum)
            cumulative += bucket_count
        return maximum

    def summarize(self, start: Optional[float] = None, end: Optional[float] = None) -> CandlestickSummary:
        """Candlestick estimate over slots inside ``[start, end]``.

        Trimming is at slot granularity: a slot contributes only when
        its whole window lies inside the range (pass ``None`` for an
        open end).  Raises if no samples land in the window, matching
        :meth:`LatencyRecorder.summarize`.
        """
        counts, total, total_sum, minimum, maximum = self._aggregate(start, end)
        if not total:
            raise ValueError(f"recorder {self.name!r} has no samples to summarize")
        def est(fraction: float) -> float:
            return self._estimate_percentile(counts, total, fraction, minimum, maximum)

        p25 = est(0.25)
        median = est(0.50)
        p75 = est(0.75)
        iqr = p75 - p25
        low_bound = p25 - 1.5 * iqr
        high_bound = p75 + 1.5 * iqr
        # Bucket-resolution whiskers: most extreme occupied bucket
        # bounds that stay within 1.5 IQR of the box.
        whisker_low = minimum if minimum >= low_bound else None
        whisker_high = maximum if maximum <= high_bound else None
        if whisker_low is None or whisker_high is None:
            for index, bucket_count in enumerate(counts):
                if not bucket_count:
                    continue
                low = minimum if index == 0 else self._bucket_bound(index)
                high = maximum if index == self._nbuckets - 1 else self._bucket_bound(index + 1)
                if whisker_low is None and low >= low_bound:
                    whisker_low = min(max(low, minimum), maximum)
                if high <= high_bound:
                    whisker_high = min(max(high, minimum), maximum)
        if whisker_low is None:
            whisker_low = minimum
        if whisker_high is None:
            whisker_high = maximum
        mean = min(max(total_sum / total, minimum), maximum)
        return CandlestickSummary(
            p25=p25,
            median=median,
            p75=p75,
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            count=total,
            mean=mean,
            p99=est(0.99),
            maximum=maximum,
        )

    def stats(self) -> Dict[str, object]:
        """Introspection: resident slots and total bins."""
        return {
            "name": self.name,
            "samples": self.count,
            "slots": len(self._slots),
            "buckets_per_slot": self._nbuckets,
            "slot_seconds": self.slot_seconds,
        }


def trim_window(phase_start: float, phase_end: float, trim: float = 15.0) -> Tuple[float, float]:
    """The paper's measurement window: trim *trim* seconds at each end."""
    start = phase_start + trim
    end = phase_end - trim
    if end <= start:
        raise ValueError(
            f"phase [{phase_start}, {phase_end}] too short for a {trim}s trim at each end"
        )
    return start, end
