"""Network fabric: delivery, latency model, observer taps."""

from __future__ import annotations

import random

import pytest

from repro.simnet.clock import EventLoop
from repro.simnet.network import FlowRecord, LatencyModel, Network
from tests.conftest import tap_flows


@pytest.fixture
def net():
    loop = EventLoop()
    return loop, Network(loop=loop, rng=random.Random(1))


def test_message_is_delivered(net):
    loop, network = net
    got = []
    network.send("a", "b", {"x": 1}, 100, got.append)
    loop.run()
    assert got == [{"x": 1}]


def test_delivery_takes_positive_time(net):
    loop, network = net
    times = []
    network.send("a", "b", "payload", 100, lambda _: times.append(loop.now))
    loop.run()
    assert times[0] > 0


def test_latency_within_model_bounds():
    loop = EventLoop()
    model = LatencyModel(base_seconds=0.001, jitter_seconds=0.002, seconds_per_byte=0)
    network = Network(loop=loop, rng=random.Random(2), latency=model)
    times = []
    for _ in range(50):
        network.send("a", "b", None, 0, lambda _: times.append(loop.now))
        loop.run()
        loop = network.loop  # unchanged; readability
    deltas = [t for t in times]
    assert all(0.001 <= d for d in deltas)


def test_size_proportional_latency():
    loop = EventLoop()
    model = LatencyModel(base_seconds=0.0, jitter_seconds=0.0, seconds_per_byte=0.001)
    network = Network(loop=loop, rng=random.Random(3), latency=model)
    times = []
    network.send("a", "b", None, 10, lambda _: times.append(loop.now))
    loop.run()
    assert times[0] == pytest.approx(0.01)


def test_flow_records_capture_metadata(net):
    loop, network = net
    flows = tap_flows(network)
    network.send("client-1", "ua-0", "req", 345, lambda _: None)
    loop.run()
    record = flows[0]
    assert record.source == "client-1"
    assert record.destination == "ua-0"
    assert record.size_bytes == 345
    assert record.flow_id == 1


def test_flow_ids_are_unique_and_increasing(net):
    loop, network = net
    flows = tap_flows(network)
    for _ in range(3):
        network.send("a", "b", None, 1, lambda _: None)
    ids = [record.flow_id for record in flows]
    assert ids == sorted(set(ids))


def test_observers_see_flows_live(net):
    """A wiretap is called at send time, before delivery, with the
    record carrying the role directory's names."""
    loop, network = net
    network.register_role("a", "client")
    seen = tap_flows(network)
    network.send("a", "b", None, 9, lambda _: None)
    assert len(seen) == 1
    assert isinstance(seen[0], FlowRecord)
    assert (seen[0].source_role, seen[0].destination_role) == ("client", "unknown")


def test_wiretap_sees_payload(net):
    loop, network = net
    taps = []
    network.add_wiretap(lambda record, payload: taps.append((record.source, payload)))
    network.send("a", "b", {"ciphertext": "..."}, 10, lambda _: None)
    assert taps == [("a", {"ciphertext": "..."})]


def test_extra_delay_defers_delivery(net):
    loop, network = net
    times = []
    network.send("a", "b", None, 0, lambda _: times.append(loop.now), extra_delay=5.0)
    loop.run()
    assert times[0] >= 5.0


def test_counters(net):
    loop, network = net
    network.send("a", "b", None, 10, lambda _: None)
    network.send("b", "c", None, 20, lambda _: None)
    assert network.messages_sent == 2
    assert network.bytes_sent == 30
