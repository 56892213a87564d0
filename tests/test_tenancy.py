"""Multi-tenancy: shared proxy layers serving several applications."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.cluster.autoscaler import ElasticScaler
from repro.cluster.health import HealthMonitor
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.overload import OverloadPolicy
from repro.privacy import Adversary
from repro.proxy import PProxConfig
from repro.proxy.service import assemble
from repro.rest.messages import make_get
from repro.sgx.provisioning import IA_SECRET_K, IA_SECRET_SK, UA_SECRET_K, UA_SECRET_SK
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.tenancy import (
    MultiTenantPProxService,
    TenantDirectory,
    TenantItemAnonymizer,
    TenantUserAnonymizer,
    build_multi_tenant_pprox,
    tenant_slot,
)


# RSA keygen dominates test time; share per-tenant key material across
# the module's tests (stacks stay otherwise independent).
_TENANT_KEY_CACHE: dict = {}


def _tenant_keys(name: str, factory: KeyFactory):
    if name not in _TENANT_KEY_CACHE:
        _TENANT_KEY_CACHE[name] = (factory.layer_keys(), factory.layer_keys())
    return _TENANT_KEY_CACHE[name]


def _multi_tenant_stack(config=None, tenant_names=("shop", "forum"), seed=71,
                        codec="json", overload=None):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    factory = KeyFactory(
        rng_int=rng.int_fn("keys"), rng_bytes=rng.bytes_fn("keys-b")
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
    # One context for the proxies and the clients: same wire, same
    # codec *object* (identity checks rely on it).
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider,
                     codec=codec)
    config = config or PProxConfig(shuffle_size=0)
    if overload is None:
        service = build_multi_tenant_pprox(ctx, config, directory)
    else:
        # The builder arms no overload policy; the assembly it shares
        # with every other builder does.
        service = assemble(
            MultiTenantPProxService, ctx, config, lambda: None,
            overload=overload, shared_keys=False, tenants=directory,
        ).scale_to_config()
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


# -- the shared control plane on a multi-tenant service ---------------------
# (scale / restart_instance raised AttributeError on the
# tenant builder's provisioner=None before the service classes shared one
# spawn path.)


def _holds_every_tenants_secrets(instance, directory):
    sk_slot, k_slot = (
        (UA_SECRET_SK, UA_SECRET_K)
        if isinstance(instance, TenantUserAnonymizer)
        else (IA_SECRET_SK, IA_SECRET_K)
    )
    for name in directory.names():
        record = directory.record(name)
        keys = record.ua_keys if sk_slot == UA_SECRET_SK else record.ia_keys
        if instance.enclave.secret(tenant_slot(sk_slot, name)) != keys.private_key:
            return False
        if instance.enclave.secret(tenant_slot(k_slot, name)) != keys.symmetric_key:
            return False
    return instance.enclave.attested


def _train_both(loop, harnesses, clients):
    for tenant in clients:
        for user, item in [("a", "i1"), ("a", "i2"), ("b", "i1"), ("b", "i3")]:
            clients[tenant].post(user, item)
    loop.run()
    for harness in harnesses.values():
        harness.train()


def _both_tenants_get(loop, clients):
    results = {}
    for tenant, client in clients.items():
        client.get("a", on_complete=lambda call, t=tenant: results.setdefault(t, call))
    loop.run()
    return results


def test_overload_scale_up_adds_a_tenant_dispatching_ua():
    loop, _, directory, harnesses, service, clients = _multi_tenant_stack(
        config=PProxConfig(shuffle_size=0, balancing="round-robin"),
        overload=OverloadPolicy(),
    )
    _train_both(loop, harnesses, clients)
    scaler = ElasticScaler(
        loop=loop, service=service, interval=1.0, low_rps=0.0,
        overload_sojourn_threshold=0.1,
    )
    scaler.start()
    first = service.ua_instances[0]
    # A parked ingress entry: its sojourn grows with the virtual clock.
    first.ingress.push(
        (make_get("ghost", client_address="client-0"), lambda response: None, loop.now, None)
    )
    loop.run_until(loop.now + 1.05)
    scaler.stop()
    assert first.ingress.pop() is not None
    loop.run()
    assert [d.action for d in scaler.decisions if d.layer == "UA"] == ["scale-up-overload"]
    added = service.ua_instances[1]
    assert isinstance(added, TenantUserAnonymizer)
    assert added in service.ua_balancer.backends
    assert _holds_every_tenants_secrets(added, directory)
    before = added.requests_processed
    results = _both_tenants_get(loop, clients)
    assert all(results[tenant].ok and "i3" in results[tenant].items for tenant in clients)
    assert added.requests_processed > before  # round-robin: it served one of the two


def test_crashed_tenant_ia_is_restarted_and_readmitted():
    loop, _, directory, harnesses, service, clients = _multi_tenant_stack()
    _train_both(loop, harnesses, clients)
    monitor = HealthMonitor(loop=loop, service=service, interval=0.5)
    monitor.start()
    victim = service.ia_instances[0]
    victim.fail()
    loop.run_until(loop.now + 0.6)
    assert monitor.ejected == [victim.name]
    assert service.restart_instance(victim) is victim
    assert isinstance(victim, TenantItemAnonymizer) and victim.generation == 1
    assert victim.enclave.name.endswith("-g1")
    assert _holds_every_tenants_secrets(victim, directory)
    loop.run_until(loop.now + 0.6)
    monitor.stop()
    assert monitor.readmitted == [victim.name]
    assert monitor.stale_generation_blocks == 0  # no provisioner, nothing to verify
    results = _both_tenants_get(loop, clients)
    assert all(results[tenant].ok and "i3" in results[tenant].items for tenant in clients)


@pytest.mark.parametrize("layer", ["UA", "IA"])
def test_tenant_service_scales_either_layer(layer):
    loop, _, directory, _, service, _ = _multi_tenant_stack()
    added = service.scale(layer)
    assert added is service.layer_instances(layer)[1]
    assert isinstance(added, (TenantUserAnonymizer, TenantItemAnonymizer))
    assert _holds_every_tenants_secrets(added, directory)
