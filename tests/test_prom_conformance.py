"""Prometheus text-exposition conformance: the rendered scrape must
parse cleanly, emit exactly one +Inf bucket per histogram series with
``_sum``/``_count`` agreeing, and escape label values correctly."""

import math
import re

import pytest

from repro.telemetry.registry import MetricRegistry

SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
LABEL_PAIR = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def unescape(value):
    return (
        value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
    )


def parse_exposition(text):
    """Parse format 0.0.4 text into (samples, helps, types).

    Raises AssertionError on any line that is neither a valid comment
    nor a valid sample — the conformance check itself.
    """
    samples = []
    helps = {}
    types = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "untyped")
            types[name] = kind
            continue
        match = SAMPLE_LINE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        labels = {}
        raw = match.group("labels")
        if raw:
            consumed = ",".join(m.group(0) for m in LABEL_PAIR.finditer(raw))
            assert consumed == raw, f"unparseable label set: {raw!r}"
            for pair in LABEL_PAIR.finditer(raw):
                labels[pair.group("key")] = unescape(pair.group("value"))
        value = match.group("value")
        parsed = math.inf if value == "+Inf" else float(value)
        samples.append((match.group("name"), labels, parsed))
    return samples, helps, types


@pytest.fixture
def registry():
    reg = MetricRegistry()
    reg.counter("pprox_requests_total", "Requests issued.").inc(7)
    reg.gauge(
        "pprox_proxy_pending",
        "In-flight requests.",
        labels={"instance": 'ua "a"\\b\nnl'},
        callback=lambda: 3,
    )
    hist = reg.histogram(
        "pprox_request_latency_seconds",
        "End-to-end latency.",
        buckets=(0.1, 0.5, 1.0, math.inf),  # explicit +Inf must dedupe
    )
    for value in (0.05, 0.2, 0.7, 2.0):
        hist.observe(value)
    return reg


def test_every_line_parses(registry):
    samples, helps, types = parse_exposition(registry.render_prometheus())
    assert samples, "no samples rendered"
    assert types["pprox_requests_total"] == "counter"
    assert types["pprox_proxy_pending"] == "gauge"
    assert types["pprox_request_latency_seconds"] == "histogram"
    assert helps["pprox_requests_total"] == "Requests issued."


def test_type_comment_precedes_its_samples(registry):
    text = registry.render_prometheus()
    lines = text.splitlines()
    for name in ("pprox_requests_total", "pprox_request_latency_seconds"):
        type_index = lines.index(f"# TYPE {name} " + ("counter" if name.endswith("_total") else "histogram"))
        sample_indexes = [
            i for i, line in enumerate(lines)
            if not line.startswith("#") and line.startswith(name)
        ]
        assert sample_indexes and min(sample_indexes) > type_index


def test_histogram_emits_exactly_one_inf_bucket(registry):
    samples, _, _ = parse_exposition(registry.render_prometheus())
    inf_buckets = [
        labels for name, labels, _ in samples
        if name == "pprox_request_latency_seconds_bucket"
        and labels.get("le") == "+Inf"
    ]
    assert len(inf_buckets) == 1


def test_histogram_sum_count_and_cumulative_buckets(registry):
    samples, _, _ = parse_exposition(registry.render_prometheus())
    buckets = [
        (labels["le"], value) for name, labels, value in samples
        if name == "pprox_request_latency_seconds_bucket"
    ]
    counts = [value for _, value in buckets]
    assert counts == sorted(counts), "bucket counts must be cumulative"
    [count] = [
        value for name, _, value in samples
        if name == "pprox_request_latency_seconds_count"
    ]
    [total] = [
        value for name, _, value in samples
        if name == "pprox_request_latency_seconds_sum"
    ]
    inf_count = dict(buckets)["+Inf"]
    assert count == inf_count == 4
    assert total == pytest.approx(0.05 + 0.2 + 0.7 + 2.0)
    # Bucket boundaries are le-inclusive: 0.05 and 0.2 land <= 0.5.
    assert dict(buckets)["0.5"] == 2


def test_label_values_round_trip_through_escaping(registry):
    samples, _, _ = parse_exposition(registry.render_prometheus())
    [labels] = [
        labels for name, labels, _ in samples if name == "pprox_proxy_pending"
    ]
    assert labels["instance"] == 'ua "a"\\b\nnl'


def test_duplicate_inf_bound_is_rejected_or_deduped():
    # An explicit inf bound in the bucket list must never yield two
    # +Inf series (Prometheus parsers reject duplicate series).
    reg = MetricRegistry()
    hist = reg.histogram(
        "pprox_dup_seconds", "Dedupe check.", buckets=(1.0, math.inf, float("inf"))
    )
    hist.observe(0.5)
    text = reg.render_prometheus()
    assert text.count('le="+Inf"') == 1


def test_nan_buckets_and_empty_bucket_lists_are_rejected():
    reg = MetricRegistry()
    with pytest.raises(ValueError):
        reg.histogram("pprox_bad_seconds", "x", buckets=(float("nan"),))
    with pytest.raises(ValueError):
        reg.histogram("pprox_empty_seconds", "x", buckets=(math.inf,))
