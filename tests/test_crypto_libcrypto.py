"""The OpenSSL binding: ``mod_pow`` is ``pow``, and bad input never reaches C.

:func:`repro.crypto.libcrypto.mod_pow` carries every RSA power with a
non-negative exponent, so it is held to CPython's ``pow`` over the
inputs that trip Montgomery code — bases at or above the modulus, base
and exponent 0, modulus 1, and odd moduli of 1 to 2048 bits — on the
constant-time power and on the plain one public exponents take.  A negative
argument or an even modulus is a ``ValueError`` raised in Python, never
a silent fallback.  ``aes_ctr``'s checks are in ``test_crypto_aes.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import libcrypto
from repro.crypto.libcrypto import mod_pow

ODD_MODULI = st.integers(min_value=1, max_value=2048).flatmap(
    lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
).map(lambda value: value | 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), modulus=ODD_MODULI)
@pytest.mark.parametrize("public_exponent", [False, True])
def test_mod_pow_is_pow(public_exponent, data, modulus):
    base = data.draw(
        st.sampled_from([0, 1, modulus - 1, modulus, modulus + 1, 3 * modulus + 2])
        | st.integers(min_value=0, max_value=modulus * modulus + 1),
        label="base",
    )
    exponent = data.draw(
        st.sampled_from([0, 1, 2, 65537]) | st.integers(min_value=0, max_value=1 << 2048),
        label="exponent",
    )
    expected = pow(base, exponent, modulus)
    assert mod_pow(base, exponent, modulus, public_exponent=public_exponent) == expected


@pytest.mark.parametrize("public_exponent", [False, True])
@pytest.mark.parametrize(
    "base,exponent,modulus",
    [(0, 0, 1), (5, 0, 1), (0, 7, 1), (0, 0, 9), (0, 3, 9), (9, 0, 9), (9, 2, 9), (10, 3, 9)],
)
def test_mod_pow_edges(base, exponent, modulus, public_exponent):
    expected = pow(base, exponent, modulus)
    assert mod_pow(base, exponent, modulus, public_exponent=public_exponent) == expected


@pytest.mark.parametrize(
    "base,exponent,modulus",
    [(-1, 3, 7), (2, -1, 7), (2, 3, -7), (2, 3, 0), (2, 3, 2), (2, 3, 1 << 64)],
)
def test_mod_pow_rejects_negative_arguments_and_even_moduli(base, exponent, modulus, monkeypatch):
    monkeypatch.setattr(libcrypto, "_bn_ctx_new", _no_c_call)
    for public_exponent in (False, True):
        with pytest.raises(ValueError, match="non-negative|odd modulus"):
            mod_pow(base, exponent, modulus, public_exponent=public_exponent)


@pytest.mark.parametrize("key_size,iv_size", [(5, 16), (32, 15), (32, 17)])
def test_aes_ctr_checks_run_before_any_openssl_call(key_size, iv_size, monkeypatch):
    monkeypatch.setattr(libcrypto, "_ctx_new", _no_c_call)
    with pytest.raises(ValueError):
        libcrypto.aes_ctr(bytes(key_size), bytes(iv_size), b"data")


def test_the_bound_library_is_hashlibs():
    import _hashlib

    assert libcrypto.LIBRARY == _hashlib.__file__


def _no_c_call():
    raise AssertionError("reached OpenSSL with input Python should have refused")
