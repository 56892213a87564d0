"""Proxy service assembly: provisioning, scaling, breach response."""

from __future__ import annotations

import pytest

from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.lrs.stub import StubLrs
from repro.proxy import PProxConfig, build_pprox
from repro.proxy.service import IA_CODE_IDENTITY, UA_CODE_IDENTITY
from repro.sgx.enclave import EnclaveMeasurement
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def _service(config=None, seed=31):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    ctx = SimContext(loop=loop, network=network, rng=rng)
    service = build_pprox(ctx, config or PProxConfig(), lrs_picker=lambda: stub)
    return rng, service


def test_builds_requested_instance_counts():
    _, service = _service(PProxConfig(ua_instances=3, ia_instances=2))
    assert len(service.ua_instances) == 3
    assert len(service.ia_instances) == 2
    assert len(service.ua_balancer) == 3


def test_all_enclaves_attested_and_provisioned():
    _, service = _service()
    for enclave in service.all_enclaves():
        assert enclave.attested
        assert enclave.provisioned


def test_layer_measurements_differ():
    assert EnclaveMeasurement.of_code(UA_CODE_IDENTITY) != EnclaveMeasurement.of_code(
        IA_CODE_IDENTITY
    )


def test_layers_have_distinct_keys():
    _, service = _service()
    ua = service.provisioner.layer_keys["UA"]
    ia = service.provisioner.layer_keys["IA"]
    assert ua.private_key.n != ia.private_key.n
    assert ua.symmetric_key != ia.symmetric_key


def test_same_layer_instances_share_keys():
    """§5: all enclaves from the same layer are provisioned with the
    same secrets (no shared mutable state needed)."""
    _, service = _service(PProxConfig(ua_instances=2, ia_instances=2))
    from repro.sgx.provisioning import UA_SECRET_K

    keys = {inst.enclave.secret(UA_SECRET_K) for inst in service.ua_instances}
    assert len(keys) == 1


def test_scale_out_attests_new_enclave():
    _, service = _service()
    new_instance = service.scale_ua()
    assert new_instance.enclave.attested
    assert new_instance.enclave.provisioned
    assert len(service.ua_instances) == 2


def test_client_material_exposes_public_halves_only():
    _, service = _service()
    material = service.client_material
    assert material.ua.public_key.n == service.provisioner.layer_keys["UA"].private_key.n
    assert not hasattr(material.ua, "symmetric_key")


def test_entry_picks_a_ua_instance():
    _, service = _service(PProxConfig(ua_instances=2))
    assert service.entry() in service.ua_instances


def test_rotate_layer_replaces_keys_everywhere():
    rng, service = _service()
    old_public = service.client_material.ua.public_key.n
    factory = KeyFactory(
        rsa_bits=1024,
        rng_int=rng.int_fn("rotation"),
        rng_bytes=rng.bytes_fn("rotation-bytes"),
    )
    service.rotate_layer("UA", factory)
    assert service.client_material.ua.public_key.n != old_public
    for instance in service.ua_instances:
        assert not instance.enclave.compromised


def test_rotation_clears_compromise_flag():
    rng, service = _service()
    service.ua_instances[0].enclave.mark_compromised()
    factory = KeyFactory(
        rsa_bits=1024,
        rng_int=rng.int_fn("rotation"),
        rng_bytes=rng.bytes_fn("rotation-bytes"),
    )
    service.rotate_layer("UA", factory)
    assert not service.ua_instances[0].enclave.compromised


def test_deterministic_build_for_same_seed():
    _, one = _service(seed=55)
    _, two = _service(seed=55)
    assert (
        one.provisioner.layer_keys["UA"].symmetric_key
        == two.provisioner.layer_keys["UA"].symmetric_key
    )
