"""Proxy layer instances: data-plane behaviour through the simulator."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig, build_pprox
from repro.rest.routing import RoutingError
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.conftest import tap_flows


def _stack(config: PProxConfig, seed: int = 21):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(ctx, config, lrs_picker=lambda: stub)
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            provider, service.provisioner.layer_keys["IA"].symmetric_key
        )
    client = PProxClient(ctx, service)
    return loop, network, stub, service, client


NOSHUF = PProxConfig(shuffle_size=0)


def test_get_roundtrip_through_both_layers():
    loop, _, _, service, client = _stack(NOSHUF)
    results = []
    client.get("alice", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items  # stub items decrypted back to cleartext
    assert all(item.startswith("static-item-") for item in results[0].items)


def test_post_roundtrip():
    loop, _, _, service, client = _stack(NOSHUF)
    results = []
    client.post("alice", "item-1", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items == []


def test_layers_count_processed_requests():
    loop, _, _, service, client = _stack(NOSHUF)
    for _ in range(3):
        client.get("u", on_complete=lambda c: None)
    loop.run()
    assert service.ua_instances[0].requests_processed == 3
    assert service.ua_instances[0].responses_processed == 3
    assert service.ia_instances[0].requests_processed == 3


def test_routing_tables_drain():
    loop, _, _, service, client = _stack(NOSHUF)
    for _ in range(5):
        client.get("u", on_complete=lambda c: None)
    loop.run()
    assert len(service.ua_instances[0].routing) == 0
    assert len(service.ia_instances[0].routing) == 0


def test_ia_never_sees_client_addresses():
    loop, network, _, service, client = _stack(NOSHUF)
    flows = tap_flows(network)
    client.get("alice", on_complete=lambda c: None)
    loop.run()
    ia_inbound = [f for f in flows if f.destination_role == "ia"]
    assert ia_inbound
    # IA traffic comes only from the UA layer and the LRS — never from
    # a client address.
    assert {f.source_role for f in ia_inbound} == {"ua", "lrs"}


def test_lrs_sees_only_pseudonyms():
    loop, network, stub, service, client = _stack(NOSHUF)
    taps = []
    network.add_wiretap(lambda record, payload: taps.append((record, payload)))
    client.post("alice", "secret-movie", on_complete=lambda c: None)
    loop.run()
    lrs_requests = [
        payload for record, payload in taps
        if record.destination == stub.address and hasattr(payload, "fields")
    ]
    assert lrs_requests
    for request in lrs_requests:
        assert request.fields.get("user") != "alice"
        assert request.fields.get("item") != "secret-movie"


def test_shuffling_delays_processing():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=4, shuffle_timeout=0.5))
    results = []
    client.get("solo", on_complete=results.append)
    loop.run()
    # A lone request waits for the timer on the request and response
    # buffers: total latency ~ 2 x timeout.
    assert results[0].latency >= 0.5


def test_full_shuffle_batch_proceeds_without_timer():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=4, shuffle_timeout=60.0))
    results = []
    for index in range(4):
        client.get(f"user-{index}", on_complete=results.append)
    loop.run()
    assert len(results) == 4
    assert all(r.latency < 1.0 for r in results)


def test_multi_instance_layers_balance_load():
    loop, _, _, service, client = _stack(
        PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2, balancing="round-robin")
    )
    for index in range(10):
        client.get(f"user-{index}", on_complete=lambda c: None)
    loop.run()
    assert all(inst.requests_processed > 0 for inst in service.ua_instances)
    assert all(inst.requests_processed > 0 for inst in service.ia_instances)


def test_encryption_disabled_stays_functional():
    loop, _, _, service, client = _stack(PProxConfig(encryption=False, sgx=False, shuffle_size=0))
    results = []
    client.get("alice", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items


def test_hardened_hop_end_to_end():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=0, harden_client_hop=True))
    results = []
    client.get("alice", on_complete=results.append)
    client.post("alice", "item-2", on_complete=results.append)
    loop.run()
    assert all(r.ok for r in results)
    get_result = next(r for r in results if r.verb == "GET")
    assert get_result.items


def test_unknown_response_id_counted_as_stale_and_dropped():
    # A response whose route is gone (e.g. it predates a crash/restart)
    # must not crash the instance: it is counted and dropped, and the
    # client recovers via timeout + retry.
    loop, _, _, service, client = _stack(NOSHUF)
    from repro.rest.messages import Response

    ua = service.ua_instances[0]
    ua._return_to_client(Response(status=200, request_id=424242))
    assert ua.stale_responses == 1
    assert ua.alive

    # Direct consumption of an unknown route still raises.
    with pytest.raises(RoutingError):
        ua.routing.consume(424242)
