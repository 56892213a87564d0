"""Unit tests for the metric registry and the virtual-time scraper."""

import math

import pytest

from repro.simnet.clock import EventLoop
from repro.telemetry.registry import (
    Counter,
    Histogram,
    MetricRegistry,
    Scraper,
    sanitize_metric_name,
)


def test_counter_monotonic():
    counter = Counter("requests_total")
    counter.inc()
    counter.inc(4)
    assert counter.value() == 5.0
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_callback_overrides_local_value():
    backing = {"count": 0}
    counter = Counter("cb_total", callback=lambda: backing["count"])
    backing["count"] = 17
    assert counter.value() == 17.0


def test_histogram_bucket_boundaries_le_inclusive():
    hist = Histogram("lat", buckets=(0.1, 0.5, 1.0))
    # Exactly on a bound lands in that bound's bucket (le semantics).
    hist.observe(0.1)
    hist.observe(0.10001)
    hist.observe(0.5)
    hist.observe(2.0)  # above every bound -> +Inf only
    cumulative = dict(hist.cumulative_buckets())
    assert cumulative[0.1] == 1
    assert cumulative[0.5] == 3
    assert cumulative[1.0] == 3
    assert cumulative[math.inf] == 4
    assert hist.count == 4
    assert hist.sum == pytest.approx(0.1 + 0.10001 + 0.5 + 2.0)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(0.1, 0.1))


def test_histogram_exposition_format():
    hist = Histogram("lat_seconds", labels={"role": "ua"}, buckets=(0.5, 1.0))
    hist.observe(0.25)
    hist.observe(0.75)
    lines = hist.exposition_lines()
    assert 'lat_seconds_bucket{role="ua",le="0.5"} 1' in lines
    assert 'lat_seconds_bucket{role="ua",le="1"} 2' in lines
    assert 'lat_seconds_bucket{role="ua",le="+Inf"} 2' in lines
    assert 'lat_seconds_sum{role="ua"} 1' in lines
    assert 'lat_seconds_count{role="ua"} 2' in lines


def test_registry_render_prometheus_help_and_type_once():
    registry = MetricRegistry()
    registry.counter("pprox_req_total", "Total requests.", labels={"role": "ua"}).inc(2)
    registry.counter("pprox_req_total", "Total requests.", labels={"role": "ia"}).inc(3)
    registry.gauge("pprox_pending", "In-flight requests.", callback=lambda: 1)
    text = registry.render_prometheus()
    assert text.count("# HELP pprox_req_total Total requests.") == 1
    assert text.count("# TYPE pprox_req_total counter") == 1
    # Instruments of one family are sorted by labels.
    ia_line = text.index('pprox_req_total{role="ia"} 3')
    ua_line = text.index('pprox_req_total{role="ua"} 2')
    assert ia_line < ua_line
    assert "# TYPE pprox_pending gauge" in text
    assert text.endswith("\n")


def test_registry_get_or_create_is_idempotent_and_rebinds_callbacks():
    registry = MetricRegistry()
    first = registry.gauge("depth", callback=lambda: 1.0)
    second = registry.gauge("depth", callback=lambda: 9.0)
    assert first is second
    assert first.value() == 9.0  # fresh run's callback adopted


def test_registry_kind_mismatch_raises():
    registry = MetricRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")


def test_metric_name_sanitization():
    assert sanitize_metric_name("node.queue.length") == "node_queue_length"
    assert sanitize_metric_name("9lives") == "_9lives"
    registry = MetricRegistry(namespace="pprox")
    gauge = registry.gauge("node.depth")
    assert gauge.name == "pprox_node_depth"
    assert registry.get("node.depth") is gauge


def test_scraper_samples_on_interval_and_stops_with_the_run():
    loop = EventLoop()
    registry = MetricRegistry()
    gauge = registry.gauge("g")
    scraper = Scraper(loop=loop, registry=registry, interval=1.0)
    scraper.start()
    # Keep the simulation alive for ~5 virtual seconds.
    for t in range(1, 6):
        loop.schedule_at(float(t), lambda: None)
    loop.run()
    assert scraper.samples_taken >= 4
    # The scraper must not keep run() from draining: queue is empty now.
    assert loop.pending == 0
    assert len(gauge.series.points) == scraper.samples_taken


def test_scraper_stop_start_no_double_schedule():
    loop = EventLoop()
    registry = MetricRegistry()
    registry.gauge("g")
    scraper = Scraper(loop=loop, registry=registry, interval=1.0)
    scraper.start()
    scraper.start()  # second start is a no-op
    scraper.stop()
    scraper.start()
    loop.schedule_at(3.5, lambda: None)
    loop.run_until(3.5)
    # One tick per interval despite the stop/start cycle.
    assert scraper.samples_taken == 3
