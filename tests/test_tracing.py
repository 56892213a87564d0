"""Latency-breakdown probe: stage accounting from wire events.

The probe reads what the wire carries — ``WireFrame`` request ids and
the ``request_ids`` of a sealed ``BatchEnvelope`` — so every check here
holds on the JSON wire (the default) and on the binary one.
"""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.oracles.wire_breakdown import STAGES, BreakdownProbe


def _traced_stack(config: PProxConfig, seed=91, codec="json"):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider,
                     codec=codec)
    service = build_pprox(ctx, config, lrs_picker=lambda: stub)
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            provider, service.provisioner.layer_keys["IA"].symmetric_key
        )
    probe = BreakdownProbe()
    probe.attach(network)
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    return loop, client, probe


def test_probe_collects_complete_traces(codec="json"):
    loop, client, probe = _traced_stack(PProxConfig(shuffle_size=0), codec=codec)
    for index in range(5):
        client.get(f"user-{index}")
    loop.run()
    traces = probe.complete_traces()
    assert len(traces) == 5
    for durations in traces:
        assert set(durations) == set(STAGES)
        assert all(value >= 0 for value in durations.values())


def test_stage_sum_is_close_to_total_latency(codec="json"):
    loop, client, probe = _traced_stack(PProxConfig(shuffle_size=0), codec=codec)
    calls = []
    client.get("user", on_complete=calls.append)
    loop.run()
    durations = probe.complete_traces()[0]
    stage_sum = sum(durations.values())
    # Stage sum excludes only the first/last network hop + client work.
    assert stage_sum <= calls[0].latency
    assert stage_sum > 0.5 * calls[0].latency


def test_shuffle_buffers_show_in_the_right_stages(codec="json"):
    """A lone request under S=4 waits on both shuffle timers: the
    ua_inbound and ia_outbound stages absorb ~one timeout each."""
    loop, client, probe = _traced_stack(
        PProxConfig(shuffle_size=4, shuffle_timeout=0.2), codec=codec
    )
    client.get("solo")
    loop.run()
    durations = probe.complete_traces()[0]
    assert durations["ua_inbound"] >= 0.2
    assert durations["ia_outbound"] >= 0.2
    assert durations["ia_inbound"] < 0.05
    assert durations["ua_outbound"] < 0.05


def test_aggregate_and_render(codec="json"):
    loop, client, probe = _traced_stack(PProxConfig(shuffle_size=0), codec=codec)
    for index in range(10):
        client.get(f"user-{index}")
    loop.run()
    aggregated = probe.aggregate()
    assert set(aggregated) == set(STAGES)
    text = probe.render()
    assert "ua_inbound" in text and "total" in text


@pytest.mark.parametrize("check", [
    test_probe_collects_complete_traces,
    test_stage_sum_is_close_to_total_latency,
    test_shuffle_buffers_show_in_the_right_stages,
    test_aggregate_and_render,
], ids=lambda check: check.__name__)
def test_same_on_the_binary_wire(check):
    check(codec="binary")


def test_sealed_flush_completes_every_timeline_it_carries():
    """Binary wire, S=3: the UA->IA hop is ONE BatchEnvelope per flush;
    the probe credits that send to each request id it announces."""
    loop, client, probe = _traced_stack(
        PProxConfig(shuffle_size=3, shuffle_timeout=0.2), codec="binary"
    )
    for index in range(6):
        client.get(f"user-{index}")
    loop.run()
    assert client.service.ua_instances[0].batch_envelopes_sealed == 2
    assert probe.completed_count == 6
    assert not probe.timelines


def test_aggregate_without_traces_raises():
    with pytest.raises(ValueError, match="no complete traces"):
        BreakdownProbe().aggregate()
