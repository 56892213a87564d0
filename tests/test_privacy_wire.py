"""Wire-level indistinguishability: constant message sizes (§4.3)."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.privacy.wire import constant_size_violations, flow_size_profile, hop_of
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import FlowRecord, Network
from repro.simnet.rng import RngRegistry
from tests.conftest import tap_flows


def _run_gets(config: PProxConfig, users):
    rng = RngRegistry(seed=23)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    flows = tap_flows(network)
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(ctx, config, lrs_picker=lambda: stub)
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            provider, service.provisioner.layer_keys["IA"].symmetric_key
        )
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    for user in users:
        client.get(user)
    loop.run()
    return flows


def test_hop_classification():
    """A hop is named by the role directory, never by how an address is
    spelled: an address nobody registered is ``unknown``, not ``lrs``."""
    loop = EventLoop()
    network = Network(loop=loop, rng=RngRegistry(seed=1).stream("net"))
    flows = tap_flows(network)
    network.register_role("front-door", "ua")
    network.register_role("alice-laptop", "client")
    network.send("alice-laptop", "front-door", None, 10, lambda _: None)
    network.send("pprox-ia-1", "client-looking-stranger", None, 10, lambda _: None)
    assert [hop_of(record) for record in flows] == [("client", "ua"), ("unknown", "unknown")]
    bare = FlowRecord(time=0, source="client-alice", destination="pprox-ua-0",
                      size_bytes=10, flow_id=1)
    assert hop_of(bare) == ("unknown", "unknown")


def test_get_requests_have_constant_size_across_users():
    """Identifiers of very different lengths produce identical wire
    sizes on every protected hop."""
    flows = _run_gets(
        PProxConfig(shuffle_size=0),
        users=["u", "a-much-longer-user-identifier-0001", "平均的なユーザー"],
    )
    violations = constant_size_violations(flows)
    assert violations == [], violations


def test_responses_have_constant_size():
    flows = _run_gets(PProxConfig(shuffle_size=0), users=[f"user-{i}" for i in range(5)])
    profile = flow_size_profile(flows)
    assert len(profile[("ua", "client")]) == 1
    assert len(profile[("ia", "ua")]) == 1


def test_hardened_hop_also_constant():
    flows = _run_gets(
        PProxConfig(shuffle_size=0, harden_client_hop=True),
        users=["u", "a-much-longer-user-identifier-0001"],
    )
    assert constant_size_violations(flows) == []


def test_cleartext_mode_leaks_sizes():
    """Without encryption, identifier lengths show on the wire — the
    detector must notice (negative control)."""
    flows = _run_gets(
        PProxConfig(encryption=False, sgx=False, shuffle_size=0),
        users=["u", "a-very-long-user-identifier-that-differs-a-lot"],
    )
    violations = constant_size_violations(flows)
    assert any(finding.startswith("client->ua:") for finding in violations), violations


def test_profile_covers_all_hops():
    flows = _run_gets(PProxConfig(shuffle_size=0), users=["alice"])
    profile = flow_size_profile(flows)
    assert ("client", "ua") in profile
    assert ("ua", "ia") in profile
    assert ("ia", "lrs") in profile
