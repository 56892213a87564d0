"""Remote attestation and attestation-gated provisioning."""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import KeyFactory
from repro.sgx.attestation import AttestationError, AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import KeyProvisioner, UA_SECRET_K, UA_SECRET_SK


def _enclave(code: str = "genuine") -> Enclave:
    return Enclave(
        name="e", measurement=EnclaveMeasurement.of_code(code), host_node="n"
    )


def test_quote_verifies_for_genuine_enclave():
    service = AttestationService()
    enclave = _enclave()
    nonce = b"n" * 16
    quote = service.quote(enclave, nonce)
    service.verify(quote, EnclaveMeasurement.of_code("genuine"), nonce)


def test_quote_rejects_wrong_measurement():
    service = AttestationService()
    quote = service.quote(_enclave("malicious"), b"n" * 16)
    with pytest.raises(AttestationError, match="measurement mismatch"):
        service.verify(quote, EnclaveMeasurement.of_code("genuine"), b"n" * 16)


def test_quote_rejects_replayed_nonce():
    service = AttestationService()
    quote = service.quote(_enclave(), b"old-nonce-000000")
    with pytest.raises(AttestationError, match="nonce"):
        service.verify(quote, EnclaveMeasurement.of_code("genuine"), b"new-nonce-000000")


def test_quote_rejects_forged_signature():
    service = AttestationService()
    other_service = AttestationService()
    quote = other_service.quote(_enclave(), b"n" * 16)
    with pytest.raises(AttestationError, match="signature"):
        service.verify(quote, EnclaveMeasurement.of_code("genuine"), b"n" * 16)


@pytest.fixture(scope="module")
def provisioner():
    rng = random.Random(5)
    factory = KeyFactory(rng_int=lambda b: rng.randrange(b))
    return KeyProvisioner(
        attestation=AttestationService(),
        expected_measurements={
            "UA": EnclaveMeasurement.of_code("ua-code"),
            "IA": EnclaveMeasurement.of_code("ia-code"),
        },
        layer_keys={"UA": factory.layer_keys(), "IA": factory.layer_keys()},
    )


def test_provision_installs_layer_secrets(provisioner):
    enclave = _enclave("ua-code")
    provisioner.provision("UA", enclave)
    assert enclave.provisioned
    assert enclave.secret(UA_SECRET_K) == provisioner.layer_keys["UA"].symmetric_key
    assert enclave.secret(UA_SECRET_SK) is provisioner.layer_keys["UA"].private_key


def test_provision_refuses_forged_enclave(provisioner):
    forged = _enclave("evil-code")
    with pytest.raises(AttestationError):
        provisioner.provision("UA", forged)
    assert not forged.provisioned


def test_provision_rejects_unknown_layer(provisioner):
    with pytest.raises(KeyError):
        provisioner.provision("XX", _enclave("ua-code"))


def test_rotate_layer_installs_fresh_keys(provisioner):
    enclave = _enclave("ua-code")
    provisioner.provision("UA", enclave)
    rng = random.Random(6)
    factory = KeyFactory(rng_int=lambda b: rng.randrange(b))
    new_keys = factory.layer_keys()
    provisioner.rotate_layer("UA", new_keys, [enclave])
    assert enclave.secret(UA_SECRET_K) == new_keys.symmetric_key
