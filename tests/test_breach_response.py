"""Breach response flows: footnote 1's options, end to end."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


@pytest.fixture
def stack():
    rng = RngRegistry(seed=151)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(ctx, PProxConfig(shuffle_size=0),
                          lrs_picker=harness.pick_frontend)
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    factory = KeyFactory(rsa_bits=1024, rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))
    for user, item in [("a", "i1"), ("a", "i2"), ("b", "i1")]:
        client.post(user, item)
    loop.run()
    return loop, harness, service, client, factory


def test_breach_response_drops_database(stack):
    loop, harness, service, client, factory = stack
    assert harness.engine.event_count == 3
    service.breach_response("IA", factory, lrs_store=harness.engine.store)
    assert harness.engine.event_count == 0


def test_breach_response_without_store_keeps_data(stack):
    loop, harness, service, client, factory = stack
    service.breach_response("IA", factory)
    assert harness.engine.event_count == 3


def test_service_works_after_drop_response(stack):
    """Fresh keys + empty store: the deployment restarts cleanly and
    accumulates new (re-pseudonymized) feedback."""
    loop, harness, service, client, factory = stack
    old_ua = service.provisioner.layer_keys["UA"].symmetric_key
    service.breach_response("UA", factory, lrs_store=harness.engine.store)
    assert service.provisioner.layer_keys["UA"].symmetric_key != old_ua
    done = []
    client.post("a", "i1", on_complete=done.append)
    loop.run()
    assert done[0].ok
    assert harness.engine.event_count == 1


def test_compromised_enclaves_are_cleared(stack):
    loop, harness, service, client, factory = stack
    for instance in service.ia_instances:
        instance.enclave.mark_compromised()
    service.breach_response("IA", factory, lrs_store=harness.engine.store)
    assert all(not i.enclave.compromised for i in service.ia_instances)


def test_rotation_invalidates_old_client_material(stack):
    """A client still holding the pre-rotation public keys can no
    longer be served — its envelopes fail under the new private key.
    (Real deployments push fresh material to the user-side library.)"""
    loop, harness, service, client, factory = stack
    from repro.proxy import protocol

    stale_material = service.client_material
    service.breach_response("UA", factory)
    # Encrypt against the stale keys, decrypt with the rotated ones.
    encoded, _ = protocol.client_encode_get(
        client.provider, stale_material, service.config,
        __import__("repro.rest.messages", fromlist=["make_get"]).make_get("a"),
    )
    from repro.crypto.envelope import EnvelopeCodec

    with pytest.raises(Exception):
        client.provider.asym_decrypt(
            service.provisioner.layer_keys["UA"],
            EnvelopeCodec.wire_blob(encoded.fields["user"]),
        )
    # With refreshed material, service resumes.
    client.get("a", on_complete=lambda c: None)
    loop.run()
