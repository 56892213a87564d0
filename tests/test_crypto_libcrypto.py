"""The OpenSSL binding: ``mod_pow`` is ``pow``, and bad input never reaches C.

:func:`repro.crypto.libcrypto.mod_pow` carries key generation's
Miller-Rabin powers, so it is held to CPython's ``pow`` over the
inputs that trip Montgomery code — bases at or above the modulus, base
and exponent 0, modulus 1, and odd moduli of 1 to 2048 bits — on the
constant-time power and on the plain one public exponents take.  A negative
argument or an even modulus is a ``ValueError`` raised in Python, never
a silent fallback.  ``aes_ctr``'s checks are in ``test_crypto_aes.py``,
the raw RSA operations' in ``test_crypto_rsa.py``.  A libcrypto call
that fails leaves the thread's OpenSSL error queue empty, so no stale
reason surfaces in a later ``hashlib`` or ``ssl`` error.
"""

from __future__ import annotations

import ctypes
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import libcrypto
from repro.crypto.libcrypto import RsaHandle, mod_pow
from repro.crypto.rsa import generate_keypair

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


# Held here so a test that patches one of them can still queue an error.
_CTX_NEW, _CTX_FREE = libcrypto._ctx_new, libcrypto._ctx_free
_ENCRYPT_INIT = libcrypto._encrypt_init
_peek_error = libcrypto._bind("ERR_peek_error", ctypes.c_ulong)


def _queue_an_openssl_error():
    """Make libcrypto itself queue an error: initialise a cipher context
    without a cipher."""
    ctx = _CTX_NEW()
    try:
        assert _ENCRYPT_INIT(ctx, None, None, None, None) == 0
    finally:
        _CTX_FREE(ctx)
    assert _peek_error() != 0


def _failing(result):
    def binding(*_args):
        _queue_an_openssl_error()
        return result
    return binding


_KEY = generate_keypair(random.Random(11).randrange)[1]
_BLOCK = (12345).to_bytes(_KEY.modulus_bytes, "big")


def _private_handle():
    return RsaHandle(_KEY.n, _KEY.e, (_KEY.d, _KEY.p, _KEY.q) + _KEY.crt_values)


#: binding -> (the value it returns on failure, a call through it, the error raised)
_FAILURES = {
    "_encrypt_update": (0, lambda: libcrypto.aes_ctr(bytes(32), bytes(16), b"data"),
                        RuntimeError),
    "_ctx_new": (None, lambda: libcrypto.aes_ctr(bytes(32), bytes(16), b"data"), MemoryError),
    "_bn_mod_exp_consttime": (0, lambda: mod_pow(3, 5, 7), RuntimeError),
    "_bn_mod_exp_public": (0, lambda: mod_pow(3, 5, 7, public_exponent=True), RuntimeError),
    "_bn_new": (None, lambda: mod_pow(3, 5, 7), MemoryError),
    "_rsa_new": (None, _private_handle, MemoryError),
    "_rsa_set0_key": (0, lambda: RsaHandle(_KEY.n, _KEY.e), MemoryError),
    "_rsa_set0_factors": (0, _private_handle, MemoryError),
    "_rsa_set0_crt_params": (0, _private_handle, MemoryError),
    "_rsa_private_decrypt": (-1, lambda: _private_handle().private_op(_BLOCK), RuntimeError),
    "_rsa_public_encrypt": (-1, lambda: RsaHandle(_KEY.n, _KEY.e).public_op(_BLOCK),
                            RuntimeError),
}


@pytest.mark.parametrize("binding", sorted(_FAILURES))
def test_a_failing_libcrypto_call_leaves_the_error_queue_empty(binding, monkeypatch):
    result, call, error = _FAILURES[binding]
    libcrypto._err_clear_error()
    monkeypatch.setattr(libcrypto, binding, _failing(result))
    with pytest.raises(error):
        call()
    assert _peek_error() == 0


def test_a_public_handle_has_no_private_operation():
    """OpenSSL refuses, and the refusal leaves no queued error behind."""
    libcrypto._err_clear_error()
    with pytest.raises(RuntimeError):
        RsaHandle(_KEY.n, _KEY.e).private_op(_BLOCK)
    assert _peek_error() == 0


@pytest.mark.parametrize("values", [(10, 3, None), (0, 3, None), (15, 0, None),
                                    (15, 3, (1, 3, 5, 0, 1, 1))])
def test_a_handle_refuses_an_even_modulus_or_a_value_below_one(values, monkeypatch):
    monkeypatch.setattr(libcrypto, "_rsa_new", _no_c_call)
    with pytest.raises(ValueError):
        RsaHandle(*values)


def _no_c_call():
    raise AssertionError("reached OpenSSL with input Python should have refused")
