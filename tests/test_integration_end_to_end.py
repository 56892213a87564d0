"""Full-stack integration: real crypto, real CCO, full attack lifecycle."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.privacy import Adversary, KnowledgeEngine
from repro.proxy import PProxConfig, build_pprox
from repro.sgx.sidechannel import BreachDetector, SideChannelAttack
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def _full_stack(config=None, seed=61):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(
        ctx, config or PProxConfig(shuffle_size=2, shuffle_timeout=0.05),
        lrs_picker=harness.pick_frontend,
    )
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    return rng, loop, network, harness, service, client


FEEDBACK = {
    "alice": ["sci-fi-1", "sci-fi-2", "drama-1"],
    "bob": ["sci-fi-1", "sci-fi-2", "sci-fi-3"],
    "carol": ["sci-fi-2", "sci-fi-3", "drama-1"],
    "dave": ["drama-1", "drama-2"],
}


def test_recommendations_flow_end_to_end_with_real_crypto():
    _, loop, _, harness, service, client = _full_stack()
    for user, items in FEEDBACK.items():
        for item in items:
            client.post(user, item)
    loop.run()
    harness.train()
    results = {}
    for user in FEEDBACK:
        client.get(user, on_complete=lambda c, u=user: results.update({u: c.items}))
    loop.run()
    # Alice, sharing sci-fi taste with bob, is recommended sci-fi-3.
    assert "sci-fi-3" in results["alice"]
    # Recommendations never include the user's own history.
    for user, items in FEEDBACK.items():
        assert not set(results[user]) & set(items)


def test_lrs_database_is_fully_pseudonymous():
    _, loop, _, harness, service, client = _full_stack()
    for user, items in FEEDBACK.items():
        for item in items:
            client.post(user, item)
    loop.run()
    cleartext_terms = set(FEEDBACK) | {i for items in FEEDBACK.values() for i in items}
    for event in harness.engine.store.dump():
        assert event.user not in cleartext_terms
        assert event.item not in cleartext_terms


def test_side_channel_attack_lifecycle_with_detection_and_rotation():
    """The full §2.3 / footnote-1 story: attack degrades an enclave,
    the detector fires, keys rotate, the stolen secrets die, and a
    later attack on the other layer still cannot link anything."""
    rng, loop, network, harness, service, client = _full_stack()
    adversary = Adversary()
    adversary.attach(network)
    adversary.observe_lrs(harness.engine.store)

    factory = KeyFactory(rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-bytes"))

    rotations = []

    def respond(enclave) -> None:
        # Rotation restarts the enclave with fresh secrets, which also
        # terminates the in-progress side-channel campaign.
        layer = "UA" if enclave.name.startswith("ua") else "IA"
        service.rotate_layer(layer, factory)
        adversary.drop_secrets(layer)
        attack.abort()
        rotations.append(layer)

    detector = BreachDetector(
        loop=loop, enclaves=service.all_enclaves(), response=respond,
        sampling_interval=30.0, confirmation_samples=3,
    )
    detector.start()

    target = service.ua_instances[0].enclave
    attack = SideChannelAttack(
        loop=loop, target=target, duration=1800.0,
        on_success=lambda secrets: adversary.harvest_enclave("UA", target),
    )
    attack.launch()

    # Traffic keeps flowing during the attack.
    for user, items in FEEDBACK.items():
        for item in items:
            client.post(user, item)
    loop.run_until(2000.0)
    detector.stop()
    loop.run()

    # Detector fired and the layer was rotated.
    assert rotations and rotations[0] == "UA"
    # The adversary's UA secrets were retired by the rotation; a
    # subsequent IA attack is now inside the model.
    ia_enclave = service.ia_instances[0].enclave
    ia_enclave.mark_compromised()
    adversary.harvest_enclave("IA", ia_enclave)

    provider = client.provider
    engine = KnowledgeEngine.for_adversary(
        adversary, provider,
        catalog={i for items in FEEDBACK.values() for i in items},
    )
    links = engine.derive_links(
        adversary.messages_at("ia"), adversary.lrs_dump()
    )
    assert links == set()


def test_performance_degrades_during_attack():
    """Attacked enclaves slow down — measurable at the client."""
    _, loop, _, harness, service, client = _full_stack(
        PProxConfig(shuffle_size=0)
    )
    latencies = {"before": [], "during": []}
    client.get("u1", on_complete=lambda c: latencies["before"].append(c.latency))
    loop.run()

    attack = SideChannelAttack(
        loop=loop, target=service.ia_instances[0].enclave,
        duration=10_000.0, performance_penalty=5.0,
    )
    attack.launch()
    client.get("u2", on_complete=lambda c: latencies["during"].append(c.latency))
    loop.run_until(loop.now + 100.0)

    assert latencies["during"][0] > latencies["before"][0]


def test_scaled_deployment_handles_concurrent_users():
    _, loop, _, harness, service, client = _full_stack(
        PProxConfig(shuffle_size=5, shuffle_timeout=0.1, ua_instances=2, ia_instances=2)
    )
    done = []
    for index in range(30):
        client.post(f"user-{index % 6}", f"item-{index % 9}",
                    on_complete=done.append)
    loop.run()
    assert len(done) == 30
    assert all(call.ok for call in done)
    assert harness.engine.event_count == 30
