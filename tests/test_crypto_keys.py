"""Layer key material and the key factory."""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import KeyFactory, LayerKeys


def _factory(seed: int) -> KeyFactory:
    rng = random.Random(seed)
    return KeyFactory(
        rng_int=lambda bound: rng.randrange(bound),
        rng_bytes=lambda n: rng.getrandbits(8 * n).to_bytes(n, "big") if n else b"",
    )


def test_layer_keys_validates_symmetric_key_size():
    factory = _factory(1)
    keys = factory.layer_keys()
    with pytest.raises(ValueError, match="symmetric key"):
        LayerKeys(private_key=keys.private_key, symmetric_key=b"short")


def test_factory_produces_working_keys():
    keys = _factory(2).layer_keys()
    public = keys.public_material.public_key
    assert keys.private_key.decrypt(public.encrypt(b"ping")) == b"ping"


def test_factory_is_deterministic():
    assert _factory(3).layer_keys().symmetric_key == _factory(3).layer_keys().symmetric_key


def test_factory_seeds_differ():
    assert _factory(4).layer_keys().private_key.n != _factory(5).layer_keys().private_key.n


def test_public_material_hides_private_key():
    keys = _factory(7).layer_keys()
    material = keys.public_material
    assert not hasattr(material, "private_key")
    assert not hasattr(material, "symmetric_key")
