"""Multi-tenancy: shared proxy layers serving several applications."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.privacy import Adversary
from repro.proxy import PProxConfig
from repro.sgx.provisioning import IA_SECRET_K, UA_SECRET_K
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.tenancy import TenantDirectory, build_multi_tenant_pprox, tenant_slot


# RSA keygen dominates test time; share per-tenant key material across
# the module's tests (stacks stay otherwise independent).
_TENANT_KEY_CACHE: dict = {}


def _tenant_keys(name: str, factory: KeyFactory):
    if name not in _TENANT_KEY_CACHE:
        _TENANT_KEY_CACHE[name] = (factory.layer_keys(), factory.layer_keys())
    return _TENANT_KEY_CACHE[name]


def _multi_tenant_stack(config=None, tenant_names=("shop", "forum"), seed=71,
                        codec="json"):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    factory = KeyFactory(
        rsa_bits=1024, rng_int=rng.int_fn("keys"), rng_bytes=rng.bytes_fn("keys-b")
    )
    directory = TenantDirectory()
    harnesses = {}
    for name in tenant_names:
        harness = HarnessService(
            loop=loop, rng=rng.stream(f"lrs-{name}"), frontend_count=3,
            name=f"harness-{name}",
        )
        harness.engine.trainer.llr_threshold = 0.0
        harnesses[name] = harness
        ua_keys, ia_keys = _tenant_keys(name, factory)
        from repro.tenancy import TenantRecord

        directory.register(
            TenantRecord(name=name, ua_keys=ua_keys, ia_keys=ia_keys,
                         lrs_picker=harness.pick_frontend)
        )
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    service = build_multi_tenant_pprox(
        loop, network, rng,
        config or PProxConfig(shuffle_size=0),
        directory, provider=provider, codec=codec,
    )
    # Clients must speak the same wire as the proxies (and share the
    # codec *object* — identity checks rely on it).
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider,
                     codec=service.runtime.codec)
    clients = {
        name: PProxClient(
            ctx, service, rng=rng.stream(f"client-{name}"),
            material=directory.record(name).client_material, tenant=name,
        )
        for name in tenant_names
    }
    return loop, network, directory, harnesses, service, clients


def test_tenants_are_served_through_shared_layers():
    loop, _, _, harnesses, service, clients = _multi_tenant_stack()
    clients["shop"].post("alice", "lamp")
    clients["forum"].post("alice", "thread-9")
    loop.run()
    assert harnesses["shop"].engine.event_count == 1
    assert harnesses["forum"].engine.event_count == 1
    # Both flowed through the same UA instance.
    assert service.ua_instances[0].requests_processed == 2


def test_tenant_pseudonyms_are_isolated():
    """The same user id pseudonymizes differently per tenant: no
    cross-application profile linkage even inside the LRS stores."""
    loop, _, _, harnesses, _, clients = _multi_tenant_stack()
    clients["shop"].post("alice", "lamp")
    clients["forum"].post("alice", "lamp")
    loop.run()
    shop_user = harnesses["shop"].engine.store.dump()[0].user
    forum_user = harnesses["forum"].engine.store.dump()[0].user
    assert shop_user != forum_user


def test_tenant_get_roundtrip():
    loop, _, _, harnesses, _, clients = _multi_tenant_stack()
    for user, item in [("a", "i1"), ("a", "i2"), ("b", "i1"), ("b", "i3")]:
        clients["shop"].post(user, item)
    loop.run()
    harnesses["shop"].train()
    results = []
    clients["shop"].get("a", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert "i3" in results[0].items


def test_shared_buffer_aggregates_tenant_traffic():
    """The §6.3 motivation: one tenant alone cannot fill the buffer,
    but two tenants together can — no timer flush needed."""
    loop, _, _, harnesses, service, clients = _multi_tenant_stack(
        config=PProxConfig(shuffle_size=4, shuffle_timeout=60.0)
    )
    done = []
    clients["shop"].post("u1", "i1", on_complete=done.append)
    clients["shop"].post("u2", "i2", on_complete=done.append)
    clients["forum"].post("u1", "t1", on_complete=done.append)
    clients["forum"].post("u2", "t2", on_complete=done.append)
    loop.run()
    # All four completed without waiting for the 60 s timer.
    assert len(done) == 4
    assert all(call.latency < 1.0 for call in done)


def test_broken_shared_enclave_leaks_all_tenants():
    """The paper's warning: "secrets for multiple applications could
    be stolen at once"."""
    loop, _, directory, _, service, clients = _multi_tenant_stack()
    enclave = service.ua_instances[0].enclave
    enclave.mark_compromised()
    leaked = enclave.leak_secrets()
    for name in directory.names():
        assert tenant_slot(UA_SECRET_K, name) in leaked
        assert leaked[tenant_slot(UA_SECRET_K, name)] == directory.record(name).ua_keys.symmetric_key


def test_unknown_tenant_rejected():
    loop, _, directory, _, _, _ = _multi_tenant_stack()
    with pytest.raises(KeyError, match="unknown tenant"):
        directory.record("ghost")


def test_duplicate_tenant_rejected():
    _, _, directory, _, _, _ = _multi_tenant_stack()
    factory_record = directory.record("shop")
    with pytest.raises(ValueError, match="already registered"):
        directory.register(factory_record)


def test_tenant_label_is_public_on_the_wire():
    """Tenancy does not hide which application a client uses — only
    who/what inside it.  The label survives every hop."""
    loop, network, _, _, _, clients = _multi_tenant_stack()
    taps = []
    network.add_wiretap(lambda record, payload: taps.append(payload))
    clients["shop"].post("alice", "lamp")
    loop.run()
    requests = [p for p in taps if hasattr(p, "verb")]
    assert all(p.fields.get("tenant") == "shop" for p in requests if "tenant" in p.fields)


def _run_tenant_mix(codec):
    """One seeded multi-tenant traffic mix under *codec*; returns the
    semantic outcome (per-call results + trained recommendations) plus
    the adversary's wire observations for auditing."""
    loop, network, _, harnesses, _, clients = _multi_tenant_stack(codec=codec)
    adversary = Adversary()
    adversary.attach(network)
    outcomes = []
    for tenant, user, item in [
        ("shop", "alice", "lamp"), ("shop", "alice", "rug"),
        ("shop", "bob", "lamp"), ("shop", "bob", "desk"),
        ("forum", "alice", "thread-1"), ("forum", "carol", "thread-1"),
        ("forum", "carol", "thread-2"),
    ]:
        clients[tenant].post(
            user, item,
            on_complete=lambda call, t=tenant: outcomes.append((t, "post", call.ok)),
        )
    loop.run()
    for harness in harnesses.values():
        harness.train()
    clients["shop"].get(
        "alice",
        on_complete=lambda call: outcomes.append(
            ("shop", "get", call.ok, tuple(sorted(map(str, call.items or ()))))
        ),
    )
    clients["forum"].get(
        "carol",
        on_complete=lambda call: outcomes.append(
            ("forum", "get", call.ok, tuple(sorted(map(str, call.items or ()))))
        ),
    )
    loop.run()
    return outcomes, adversary.observations


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_multi_tenant_redaction_audit_per_codec(codec):
    """No wire hop leaks a raw user or item id for either tenant, on
    any codec.  The tenant label itself is public by design."""
    outcomes, observations = _run_tenant_mix(codec)
    assert all(entry[2] for entry in outcomes)
    raw_identifiers = {"alice", "bob", "carol", "lamp", "rug", "desk",
                       "thread-1", "thread-2"}
    for obs in observations:
        fields = getattr(obs, "fields", None) or {}
        for key, value in fields.items():
            if key == "tenant":
                continue
            assert str(value) not in raw_identifiers, (
                f"raw identifier {value!r} on the wire under field {key!r}"
                f" ({obs.source}->{obs.destination}, codec={codec})"
            )


def test_multi_tenant_codec_parity():
    """The wire format must change bytes, never results: the same
    seeded mix yields identical per-tenant outcomes on the JSON wire
    (the reference) and the binary wire."""
    reference, _ = _run_tenant_mix("json")
    outcomes, _ = _run_tenant_mix("binary")
    assert outcomes == reference


def test_cross_tenant_requests_cannot_be_decrypted_with_other_keys():
    """A request encrypted for tenant A fails under tenant B's keys."""
    loop, _, directory, _, _, clients = _multi_tenant_stack()
    provider = clients["shop"].provider
    from repro.crypto.envelope import encode_identifier

    shop = directory.record("shop")
    forum = directory.record("forum")
    blob = provider.asym_encrypt(shop.client_material.ua, encode_identifier("alice"))
    with pytest.raises(Exception):
        provider.asym_decrypt(forum.ua_keys, blob)
