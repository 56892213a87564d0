"""Footnote-1 option 2 (LRS re-encryption) and §6.3 HTTP redirection."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.client import PProxClient
from repro.client.redirect import RedirectedService, RedirectFrontend
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.envelope import EnvelopeCodec, PaddingError, decode_identifier, encode_identifier
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.lrs.service import HarnessService
from repro.obs.causal import CausalTracer
from repro.privacy import Adversary
from repro.privacy.wire import epoch_tag_exposures, hop_of, trace_field_exposures
from repro.proxy import PProxConfig, build_pprox
from repro.proxy.rekey import reencrypt_store
from repro.rest.codec import WireFrame
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.conftest import tap_flows


def _stack(config=None, seed=81, codec="json", provider_cls=RealCryptoProvider):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    provider = provider_cls(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider,
                     codec=codec)
    service = build_pprox(
        ctx, config or PProxConfig(shuffle_size=0), lrs_picker=harness.pick_frontend
    )
    client = PProxClient(ctx, service, rng=rng.stream("c"))
    return rng, loop, network, harness, service, client


FEEDBACK = [("a", "i1"), ("a", "i2"), ("b", "i1"), ("b", "i3"), ("c", "i2"), ("c", "i3")]


# -- re-encryption ---------------------------------------------------------


def _rekey_setup(provider_cls=RealCryptoProvider):
    rng, loop, network, harness, service, client = _stack(provider_cls=provider_cls)
    for user, item in FEEDBACK:
        client.post(user, item)
    loop.run()
    factory = KeyFactory(rsa_bits=1024, rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))
    return rng, loop, harness, service, client, factory


def test_rekey_preserves_event_count_and_structure():
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["IA"]
    before = [(e.user, e.item) for e in harness.engine.store.dump()]
    new_keys = service.rotate_layer("IA", factory)
    report = reencrypt_store(
        harness.engine.store, client.provider, old_keys, new_keys, layer="IA"
    )
    after = [(e.user, e.item) for e in harness.engine.store.dump()]
    assert report.events_processed == len(FEEDBACK)
    assert report.items_rekeyed == len(FEEDBACK)
    assert len(after) == len(before)
    # Users untouched, items re-pseudonymized.
    assert [u for u, _ in after] == [u for u, _ in before]
    assert all(a != b for (_, a), (_, b) in zip(after, before))


def test_rekey_keeps_the_service_functional():
    """After rotation + re-encryption, gets still decrypt correctly —
    the history is preserved (unlike the drop-database response)."""
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["IA"]
    new_keys = service.rotate_layer("IA", factory)
    reencrypt_store(harness.engine.store, client.provider, old_keys, new_keys, "IA")
    harness.train()
    results = []
    client.get("a", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert "i3" in results[0].items  # history survived the rotation


def test_rekey_ua_layer():
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["UA"]
    before_users = {e.user for e in harness.engine.store.dump()}
    new_keys = service.rotate_layer("UA", factory)
    report = reencrypt_store(
        harness.engine.store, client.provider, old_keys, new_keys, layer="UA"
    )
    after_users = {e.user for e in harness.engine.store.dump()}
    assert report.users_rekeyed == len(FEEDBACK)
    assert after_users.isdisjoint(before_users)
    # Pseudonym consistency preserved: same number of distinct users.
    assert len(after_users) == len(before_users)


def test_rekey_defeats_stolen_keys():
    """The point of the exercise: the adversary's stolen kIA no longer
    resolves anything in the re-encrypted store.  AES-CTR is not
    authenticated, so the paper's construction yields garbage rather
    than an error; the sim provider does not know the pseudonym."""
    originals = {encode_identifier(item) for _, item in FEEDBACK}
    for provider_cls in (RealCryptoProvider, SimCryptoProvider):
        _, loop, harness, service, client, factory = _rekey_setup(provider_cls)
        stolen = service.provisioner.layer_keys["IA"]
        new_keys = service.rotate_layer("IA", factory)
        reencrypt_store(harness.engine.store, client.provider, stolen, new_keys, "IA")
        events = harness.engine.store.dump()
        assert len(events) == len(FEEDBACK)
        for event in events:
            try:
                recovered = client.provider.depseudonymize(
                    stolen.symmetric_key, EnvelopeCodec.wire_blob(event.item)
                )
            except ValueError:
                continue
            assert recovered not in originals
            with pytest.raises(PaddingError):
                decode_identifier(recovered)


def test_rekey_rejects_unknown_layer():
    _, loop, harness, service, client, factory = _rekey_setup()
    keys = service.provisioner.layer_keys["IA"]
    with pytest.raises(ValueError, match="layer"):
        reencrypt_store(harness.engine.store, client.provider, keys, keys, "XX")


# -- HTTP redirection ------------------------------------------------------


def _redirected_stack(seed=83, codec="json"):
    rng, loop, network, harness, service, client = _stack(
        PProxConfig(shuffle_size=2, shuffle_timeout=0.05), seed=seed, codec=codec
    )
    frontend = RedirectFrontend(service=service)
    client.service = RedirectedService(inner=service, frontend=frontend)
    return rng, loop, network, harness, service, client, frontend


def test_redirect_roundtrip_works():
    _, loop, _, harness, _, client, frontend = _redirected_stack()
    for user, item in FEEDBACK:
        client.post(user, item)
    loop.run()
    harness.train()
    results = []
    client.get("a", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert "i3" in results[0].items
    assert frontend.relayed == len(FEEDBACK) + 1


def test_redirect_hides_client_addresses_from_the_raas():
    """The adversary inside the RaaS cloud sees only the application
    frontend as a source — no per-user IP to anchor history attacks."""
    _, loop, network, harness, _, client, frontend = _redirected_stack()
    flows = tap_flows(network)
    for user, item in FEEDBACK:
        client.post(user, item)
    loop.run()
    raas_inbound = [
        f for f in flows if f.destination_role == "ua" and f.source_role != "ia"
    ]
    assert raas_inbound
    assert {f.source for f in raas_inbound} == {frontend.address}
    assert {f.source_role for f in raas_inbound} == {"relay"}


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_relay_hop_carries_frames_of_the_deployment_codec(codec):
    """The relay<->UA hop is a PProx hop like any other: what a wiretap
    sees there is a ``WireFrame`` under the deployment's codec, never a
    bare message object."""
    _, loop, network, _, service, client, frontend = _redirected_stack(codec=codec)
    relay_hop = []

    def tap(record, payload):
        if (frontend.address in (record.source, record.destination)
                and "client" not in (record.source_role, record.destination_role)):
            relay_hop.append(payload)

    network.add_wiretap(tap)
    calls = []
    client.post("a", "i1", on_complete=calls.append)
    client.post("b", "i1", on_complete=calls.append)
    loop.run()
    assert [call.ok for call in calls] == [True, True]
    assert len(relay_hop) == 4  # two requests out, two responses back
    for payload in relay_hop:
        assert isinstance(payload, WireFrame)
        assert payload.codec is service.runtime.codec


def test_redirected_client_stamps_the_epoch_tag_like_a_direct_one():
    """After a rotation the fixed-width ``kepoch`` tag rides every
    epoch-aware request; a relayed one that lacked it would be the
    short one on the client->relay and relay->UA hops."""
    rng, loop, network, harness, service, relayed, frontend = _redirected_stack()
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=relayed.provider,
                     codec=service.runtime.codec)
    direct = PProxClient(ctx, service, rng=rng.stream("c2"))
    for user, item in FEEDBACK:
        direct.post(user, item)
    loop.run()
    harness.train()
    factory = KeyFactory(rsa_bits=1024, rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))
    service.announce_epoch("UA", factory.layer_keys())
    assert relayed.service.wire_epochs == service.wire_epochs == {"UA": 1, "IA": 0}

    first_hop = {}

    def tap(record, payload):
        if record.source_role == "client":
            first_hop[record.destination] = payload

    network.add_wiretap(tap)
    results = []
    direct.get("a", client_address="client-x", on_complete=results.append)
    relayed.get("a", client_address="client-y", on_complete=results.append)
    loop.run()
    assert [call.ok for call in results] == [True, True]
    assert all("i3" in call.items for call in results)
    to_relay = first_hop.pop(frontend.address)
    (to_ua,) = first_hop.values()
    assert "kepoch" in to_relay.fields
    assert set(to_relay.fields) == set(to_ua.fields)
    assert len(to_relay.data) == len(to_ua.data)


def test_relayed_epoch_tag_is_no_exposure_and_a_stranger_is_not_an_lrs():
    """The tag and the trace id are legitimate on every hop up to the
    UA front door — ``client->relay`` and ``relay->ua`` as much as
    ``client->ua`` — and nowhere else.  The relay registers its role;
    filed under ``lrs`` by the spelling of ``app-frontend``, each
    relayed post after a rotation used to read as two exposures."""
    rng, loop, network, _, service, relayed, frontend = _redirected_stack()
    adversary = Adversary()
    adversary.attach(network)
    factory = KeyFactory(rsa_bits=1024, rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))
    service.announce_epoch("UA", factory.layer_keys())
    relayed.causal = service.runtime.causal = CausalTracer(clock=lambda: loop.now)
    relayed.post("a", "i1")
    relayed.post("b", "i2")
    loop.run()

    for name in ("kepoch", "trace"):
        tagged = {hop_of(obs) for obs in adversary.observations if name in obs.fields}
        assert tagged == {("client", "relay"), ("relay", "ua")}, name
    assert epoch_tag_exposures(adversary.observations) == []
    assert trace_field_exposures(adversary.observations) == []

    # The audit still bites past the front door, and an address nobody
    # registered is a stranger, not an LRS.
    inner = next(obs for obs in adversary.observations if hop_of(obs) == ("ua", "ia"))
    planted = replace(inner, fields={**inner.fields, "kepoch": "0001"})
    stranger = replace(planted, source="app-frontend-2", source_role=network.role_of("app-frontend-2"))
    findings = epoch_tag_exposures([planted, stranger])
    assert [finding.split(":")[0] for finding in findings] == ["ua->ia", "unknown->ia"]


def test_redirect_adds_latency():
    """The trade-off §6.3 names: privacy for latency."""
    _, loop, _, harness, _, client, _ = _redirected_stack()
    direct_rng, direct_loop, _, direct_harness, _, direct_client = _stack(
        PProxConfig(shuffle_size=2, shuffle_timeout=0.05), seed=83
    )

    relayed, direct = [], []
    client.post("u", "i", on_complete=relayed.append)
    loop.run()
    direct_client.post("u", "i", on_complete=direct.append)
    direct_loop.run()
    assert relayed[0].latency > direct[0].latency
