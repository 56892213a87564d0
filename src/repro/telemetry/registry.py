"""Metric registry: Counter/Gauge/Histogram with Prometheus exposition.

Instruments come in two flavours.  *Stateful* instruments are mutated
on the hot path (``inc``/``set``/``observe``).  *Callback* instruments
read an existing component counter (``node.queue_length``,
``balancer.decisions``, …) lazily at collect time — zero overhead per
simulated event, which is what keeps telemetry out of the perf
floor's way.

The :class:`Scraper` samples the registry on a virtual-time interval
(subsuming the old ``MetricsCollector`` loop), appending to each
instrument's :class:`TimeSeries` history.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.simnet.clock import EventHandle, EventLoop

__all__ = [
    "TimeSeries",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Scraper",
    "DEFAULT_BUCKETS",
    "sanitize_metric_name",
]

# Latency-oriented defaults: the paper's interesting range is roughly
# 1 ms (crypto legs) to a few seconds (saturated tail).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary dotted name into a legal Prometheus name."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape per the text exposition format: backslash, quote, newline."""
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: Tuple[Tuple[str, str], ...], extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(labels)
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + inner + "}"


@dataclass
class TimeSeries:
    """One sampled metric: (time, value) points."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def last(self) -> Optional[float]:
        """Most recent value, or None before the first sample."""
        return self.points[-1][1] if self.points else None

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def maximum(self) -> float:
        values = self.values()
        if not values:
            raise ValueError(f"series {self.name!r} has no samples")
        return max(values)

    def mean(self) -> float:
        values = self.values()
        if not values:
            raise ValueError(f"series {self.name!r} has no samples")
        return sum(values) / len(values)

    def window(self, start: float, end: float) -> List[float]:
        """Values sampled within ``[start, end]``."""
        return [value for time, value in self.points if start <= time <= end]


class _Instrument:
    """Common base: identity, help text, scraped history."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labels: Tuple[Tuple[str, str], ...] = tuple(sorted((labels or {}).items()))
        self.series = TimeSeries(name=self.series_name())

    def series_name(self) -> str:
        return self.name + _format_labels(self.labels)

    def value(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def sample(self, now: float) -> None:
        self.series.append(now, float(self.value()))

    def exposition_lines(self) -> List[str]:
        label_text = _format_labels(self.labels)
        return [f"{self.name}{label_text} {_format_value(self.value())}"]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value(),
        }


class Counter(_Instrument):
    """Monotonically increasing count (or a callback over one)."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0
        self.callback = callback

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value


class Gauge(_Instrument):
    """Point-in-time value (or a callback over one)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value


class Histogram(_Instrument):
    """Cumulative-bucket histogram with ``le``-inclusive boundaries.

    A value lands in every bucket whose upper bound is >= the value,
    matching Prometheus semantics (``le`` = less-than-or-equal).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels)
        bounds = sorted(float(bound) for bound in buckets)
        if any(math.isnan(bound) for bound in bounds):
            raise ValueError("histogram bucket bounds must not be NaN")
        # An explicit +Inf bound is dropped: the overflow bucket is
        # always emitted exactly once, so exposition never produces a
        # duplicate le="+Inf" series (Prometheus parsers reject those).
        bounds = [bound for bound in bounds if math.isfinite(bound)]
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # Non-cumulative per-bucket counts; the +Inf bucket is implicit.
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[index] += 1
                return
        self._bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self._bucket_counts):
            running += bucket_count
            out.append((bound, running))
        out.append((math.inf, running + self._bucket_counts[-1]))
        return out

    def value(self) -> float:
        # Scraped history tracks the observation count.
        return float(self.count)

    def exposition_lines(self) -> List[str]:
        lines: List[str] = []
        for bound, cumulative in self.cumulative_buckets():
            label_text = _format_labels(self.labels, {"le": _format_value(bound)})
            lines.append(f"{self.name}_bucket{label_text} {cumulative}")
        label_text = _format_labels(self.labels)
        lines.append(f"{self.name}_sum{label_text} {_format_value(self.sum)}")
        lines.append(f"{self.name}_count{label_text} {self.count}")
        return lines

    def snapshot(self) -> Dict[str, Any]:
        record = super().snapshot()
        record["sum"] = self.sum
        record["count"] = self.count
        record["buckets"] = [
            {"le": "+Inf" if bound == math.inf else bound, "count": cumulative}
            for bound, cumulative in self.cumulative_buckets()
        ]
        return record


class MetricRegistry:
    """Get-or-create instrument registry keyed on (name, labels)."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Instrument] = {}

    def _full_name(self, name: str) -> str:
        name = sanitize_metric_name(name)
        if self.namespace and not name.startswith(self.namespace + "_"):
            name = f"{self.namespace}_{name}"
        return name

    def _get_or_create(
        self,
        cls,
        name: str,
        help_text: str,
        labels: Optional[Dict[str, str]],
        **kwargs: Any,
    ) -> _Instrument:
        full = self._full_name(name)
        key = (full, tuple(sorted((labels or {}).items())))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {full!r} already registered as {existing.kind}, not {cls.kind}"
                )
            # Re-instrumentation across runs: adopt the fresh callback so
            # the instrument reads the new run's components.
            callback = kwargs.get("callback")
            if callback is not None:
                existing.callback = callback
            return existing
        instrument = cls(full, help_text, labels, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels, callback=callback)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels, callback=callback)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        return list(self._instruments.values())

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[_Instrument]:
        key = (self._full_name(name), tuple(sorted((labels or {}).items())))
        return self._instruments.get(key)

    def sample_all(self, now: float) -> None:
        for instrument in self._instruments.values():
            instrument.sample(now)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [instrument.snapshot() for instrument in self._instruments.values()]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        by_name: "Dict[str, List[_Instrument]]" = {}
        for instrument in self._instruments.values():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines: List[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            head = group[0]
            if head.help_text:
                lines.append(f"# HELP {name} {head.help_text}")
            lines.append(f"# TYPE {name} {head.kind}")
            for instrument in sorted(group, key=lambda ins: ins.labels):
                lines.extend(instrument.exposition_lines())
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class Scraper:
    """Virtual-time periodic sampler over a :class:`MetricRegistry`."""

    loop: EventLoop
    registry: MetricRegistry
    interval: float = 1.0
    samples_taken: int = 0
    _handle: Optional[EventHandle] = None

    def bind(self, loop: EventLoop) -> None:
        """Re-point at a fresh run's loop; must be stopped first."""
        if self._handle is not None:
            self.stop()
        self.loop = loop

    def start(self) -> None:
        if self._handle is not None:
            return
        self._handle = self.loop.schedule(self.interval, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    def _tick(self) -> None:
        self._handle = None
        now = self.loop.now
        self.registry.sample_all(now)
        self.samples_taken += 1
        # Reschedule only while the simulation has other live work: a
        # scraper that re-arms unconditionally would keep ``loop.run()``
        # from ever draining.  Once everything else is done the run is
        # over and the final registry state is what gets exported.
        if self.loop.pending > 0:
            self._handle = self.loop.schedule(self.interval, self._tick)
