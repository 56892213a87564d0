"""Unified privacy-safe telemetry: tracing, events, metrics, redaction.

The paper's platform "collect[s] logs in a systematic fashion using
fluentd" (§7.2) and diagnoses its latency anomalies from per-stage
breakdowns.  This package is the reproduction's equivalent — built so
that *operating* the system never turns the operator into the
traffic-correlation adversary of §4:

* :mod:`repro.telemetry.hub` — the :class:`Telemetry` facade the
  experiment runners and the CLI plumb through the stack; its tracer
  is :class:`repro.obs.causal.CausalTracer`, which writes client
  spans up to the UA front door, batch spans past the shuffle, and
  per-stage ``(n, sum, max)`` totals — never a record that names one
  request on both sides of the shuffle;
* :mod:`repro.telemetry.registry` — Counter/Gauge/Histogram
  instruments with Prometheus-style text exposition and a
  virtual-time scraper;
* :mod:`repro.telemetry.events` — the fluentd-style structured event
  log: it counts every record and keeps none, writing each one to its
  JSONL stream (the artifact of an experiment run), if it has one, as
  it is emitted;
* :mod:`repro.telemetry.redaction` — the privacy boundary: UA-origin
  events may never carry item ids, IA-origin events never user ids;
* :mod:`repro.telemetry.instruments` — wiring helpers that register
  the standard instruments of every hot path plus the live
  privacy-health gauges (shuffle fill ``S``, effective anonymity set
  ``S*I``, time-to-flush) and chain the tracer's batch spans onto the
  UA shuffle buffers.
"""

from repro.telemetry.events import EventLog, TelemetryEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.instruments import (
    instrument_crypto,
    instrument_injector,
    instrument_lrs,
    instrument_network,
    instrument_overload,
    instrument_recovery,
    instrument_service,
    instrument_stack,
)
from repro.telemetry.redaction import RedactionPolicy, Violation, audit_events
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Scraper,
    TimeSeries,
)

__all__ = [
    "Telemetry",
    "EventLog",
    "TelemetryEvent",
    "RedactionPolicy",
    "Violation",
    "audit_events",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Scraper",
    "TimeSeries",
    "instrument_stack",
    "instrument_service",
    "instrument_crypto",
    "instrument_lrs",
    "instrument_injector",
    "instrument_network",
    "instrument_recovery",
    "instrument_overload",
]
