"""User-side library behaviour: transparency, latency accounting."""

from __future__ import annotations

from repro.client import DirectClient, PProxClient
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.proxy import PProxConfig, build_pprox
from repro.proxy.costs import DEFAULT_COSTS
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.conftest import tap_flows


def _harness_stack(config: PProxConfig, seed: int = 41):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(ctx, config, lrs_picker=harness.pick_frontend)
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    direct = DirectClient(loop=loop, network=network, lrs_picker=harness.pick_frontend)
    return loop, harness, client, direct


FEEDBACK = [
    ("alice", "i1"), ("alice", "i2"), ("alice", "i3"),
    ("bob", "i1"), ("bob", "i2"), ("bob", "i4"),
    ("carol", "i2"), ("carol", "i3"), ("carol", "i4"),
]


def test_proxy_and_direct_clients_get_identical_recommendations():
    """PProx 'does not modify in any way the results returned by the
    LRS' — the central transparency claim."""
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    for user, item in FEEDBACK:
        client.post(user, item)
    loop.run()
    harness.train()
    through_proxy = {}
    for user in ("alice", "bob", "carol"):
        client.get(user, on_complete=lambda c, u=user: through_proxy.update({u: c.items}))
    loop.run()

    # Fresh identical deployment, queried directly (no proxy).
    loop2, harness2, _, direct2 = _harness_stack(PProxConfig(shuffle_size=0), seed=41)
    for user, item in FEEDBACK:
        direct2.post(user, item)
    loop2.run()
    harness2.train()
    direct_results = {}
    for user in ("alice", "bob", "carol"):
        direct2.get(user, on_complete=lambda c, u=user: direct_results.update({u: c.items}))
    loop2.run()

    assert through_proxy == direct_results
    assert through_proxy["alice"]  # non-trivial recommendations


def test_completed_call_latency_accounting():
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    calls = []
    client.post("u", "i", on_complete=calls.append)
    loop.run()
    call = calls[0]
    assert call.ok
    assert call.latency > 0
    assert call.completed_at == call.started_at + call.latency


def test_call_counters():
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    for _ in range(3):
        client.get("u")
    loop.run()
    assert client.calls_started == 3
    assert client.calls_completed == 3


def test_default_client_address_derives_from_user():
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    flows = tap_flows(client.network)
    client.get("zoe")
    loop.run()
    # Flow records should show the per-user client address.
    assert any(f.source == "client-zoe" for f in flows)


def test_explicit_client_address_is_used():
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    flows = tap_flows(client.network)
    client.get("zoe", client_address="client-nat-1")
    loop.run()
    assert any(f.source == "client-nat-1" for f in flows)


def test_get_before_training_returns_empty_list():
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    calls = []
    client.get("nobody", on_complete=calls.append)
    loop.run()
    assert calls[0].ok
    assert calls[0].items == []


def test_direct_client_counts_completions():
    loop, harness, _, direct = _harness_stack(PProxConfig(shuffle_size=0))
    direct.post("u", "i")
    direct.get("u")
    loop.run()
    assert direct.calls_completed == 2


def test_encryption_delay_is_charged():
    """The client-side crypto work shifts the send time."""
    loop, harness, client, _ = _harness_stack(PProxConfig(shuffle_size=0))
    client.get("u")
    assert loop.pending > 0
    # Nothing fires before the client's encryption time has passed.
    loop.run_until(DEFAULT_COSTS.client_encrypt_seconds(client.config) * (1 - 1e-9))
    assert loop.events_processed == 0
