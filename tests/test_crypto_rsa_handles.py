"""Each RSA key is loaded into OpenSSL once and freed once.

A key's :class:`repro.crypto.libcrypto.RsaHandle` is built on its first
operation and kept on the key; the client's per-request key lookup must
reach the same public key object every time, or it would reload a handle
per request.  The ``RSA`` object is freed by a finalizer exactly once,
when its last owner goes: copies and pickles load their own handle.
"""

from __future__ import annotations

import copy
import gc
import importlib
import pickle
import random
import weakref

import pytest

from repro.context import Deployment, SimContext
from repro.crypto import libcrypto, rsa
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.crypto.rsa import generate_keypair
from repro.lrs.service import HarnessService
from repro.proxy.config import PProxConfig
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import KeyProvisioner

proxy_service = importlib.import_module("repro.proxy.service")


def _seeded_bytes(seed):
    rng = random.Random(seed)
    return lambda n: rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""


def _real_deployment(seed=41):
    ctx = SimContext.fresh(seed, provider=RealCryptoProvider(rng_bytes=_seeded_bytes(seed)))
    harness = HarnessService(loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=1)
    deployment = Deployment.build(ctx=ctx, config=PProxConfig(shuffle_size=0),
                                  lrs_picker=harness.pick_frontend)
    return ctx, deployment


@pytest.fixture
def counted(monkeypatch):
    """Count every ``RSA_new`` and ``RSA_free`` from here on."""
    counts = {"new": [], "free": []}
    real_new, real_free = libcrypto._rsa_new, libcrypto._rsa_free

    def rsa_new():
        pointer = real_new()
        counts["new"].append(pointer)
        return pointer

    def rsa_free(pointer):
        counts["free"].append(pointer)
        real_free(pointer)

    monkeypatch.setattr(libcrypto, "_rsa_new", rsa_new)
    monkeypatch.setattr(libcrypto, "_rsa_free", rsa_free)
    return counts


def test_the_client_material_reuses_one_public_key_per_layer():
    _, deployment = _real_deployment()
    service = deployment.service
    first, second = service.client_material, service.client_material
    assert first.ua.public_key is second.ua.public_key
    assert first.ia.public_key is second.ia.public_key
    private = service.provisioner.layer_keys["UA"].private_key
    assert private.public_key is private.public_key


def test_a_100_get_run_loads_each_rsa_key_once(monkeypatch):
    """Two layer keys, each used privately by its layer and publicly by
    the client: four loads for the whole run, not four per request."""
    monkeypatch.setattr(proxy_service, "_KEYPAIR_CACHE", {})  # fresh, unloaded keys
    loads = []

    def recording_handle(n, e, private=None):
        loads.append((n, private is not None))
        return libcrypto.RsaHandle(n, e, private)

    monkeypatch.setattr(rsa, "RsaHandle", recording_handle)
    ctx, deployment = _real_deployment()
    client = deployment.client()
    done = []
    for index in range(100):
        client.get(f"user-{index % 7}", on_complete=done.append)
    ctx.loop.run()
    assert len(done) == 100 and all(call.ok for call in done)
    moduli = {deployment.service.provisioner.layer_keys[layer].private_key.n
              for layer in ("UA", "IA")}
    assert sorted(loads) == sorted((n, private) for n in moduli for private in (False, True))


def test_copies_and_pickles_of_a_loaded_key_decrypt_alike(counted):
    public, private = generate_keypair(random.Random(13).randrange)
    ciphertext = public.encrypt(b"one handle per owner")
    assert private.decrypt(ciphertext) == b"one handle per owner"
    copies = [copy.copy(private), copy.deepcopy(private), pickle.loads(pickle.dumps(private))]
    public_copies = [copy.copy(public), copy.deepcopy(public), pickle.loads(pickle.dumps(public))]
    for other in copies:
        assert other == private
        assert other.decrypt(ciphertext) == b"one handle per owner"
        assert other._handle is not private._handle
    for other in public_copies:
        assert private.decrypt(other.encrypt(b"back")) == b"back"
    with pytest.raises(TypeError):
        copy.copy(private._handle)
    with pytest.raises(TypeError):
        pickle.dumps(private._handle)
    del private, public, copies, public_copies, other
    gc.collect()
    assert counted["new"] and sorted(counted["free"]) == sorted(counted["new"])


def test_2000_dropped_keys_free_as_many_handles_as_they_loaded(counted):
    _, private = generate_keypair(random.Random(17).randrange)
    values = (private.n, private.e, private.d, private.p, private.q) + private.crt_values
    for index in range(2000):
        key = rsa.RsaPrivateKey(*values[:5])
        if index % 2:
            key.public_key._handle
        key._handle
    del key
    gc.collect()
    assert len(counted["new"]) == 3000
    assert len(counted["free"]) == len(counted["new"])


def test_a_rotated_out_epoch_key_is_freed_with_its_last_reference(counted):
    factory = KeyFactory(rng_int=random.Random(19).randrange, rng_bytes=_seeded_bytes(19))
    provisioner = KeyProvisioner(
        attestation=AttestationService(),
        expected_measurements={"UA": EnclaveMeasurement.of_code("ua-code")},
        layer_keys={"UA": factory.layer_keys()},
    )
    enclave = Enclave(name="e0", measurement=EnclaveMeasurement.of_code("ua-code"),
                      host_node="n")
    provisioner.provision("UA", enclave)
    old = provisioner.layer_keys["UA"].private_key
    public = old.public_key
    assert old.decrypt(public.encrypt(b"epoch 0")) == b"epoch 0"
    loaded = [old._handle._pointer, public._handle._pointer]
    handle = weakref.ref(old._handle)
    provisioner.announce_epoch("UA", factory.layer_keys(), [enclave])
    provisioner.retire_epoch("UA", [enclave])
    assert handle() is not None  # still ours
    del old, public
    gc.collect()
    assert handle() is None
    assert sorted(counted["free"]) == sorted(loaded)
