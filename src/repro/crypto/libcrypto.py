"""AES-CTR and modular powers in the libcrypto CPython's ``hashlib`` loads.

The paper's enclaves run AES-256-CTR and RSA in SGX-SSL, which is
OpenSSL's libcrypto.  CPython's ``_hashlib`` links that library (PEP 644:
OpenSSL ≥ 1.1.1), so :mod:`ctypes` reaches its ``EVP_*`` and ``BN_*``
symbols through the extension's own dependencies.  Lengths, signs and
moduli are checked in Python before any C call, since OpenSSL reads past
a short buffer rather than reject it; every return code is checked.
Secret exponents take ``BN_mod_exp_mont_consttime``.  A public one (RSA's
``e``) takes plain ``BN_mod_exp_mont``, as OpenSSL's RSA public operation
does: the constant-time power's window table costs ≈ 3× on a 17-bit
exponent and hides bits that are already known.  Each call frees its
cipher context, BIGNUMs (``BN_clear_free``) and ``BN_CTX`` before it
returns.
"""

from __future__ import annotations

import ctypes

try:
    import _hashlib
except ImportError as error:  # pragma: no cover - CPython built without OpenSSL
    raise ImportError("repro.crypto needs CPython's _hashlib, which links libcrypto") from error

__all__ = ["LIBRARY", "aes_ctr", "mod_pow"]

#: The file whose dependencies resolve the libcrypto symbols below.
LIBRARY = _hashlib.__file__
_LIB = ctypes.CDLL(LIBRARY)
_P, _INT = ctypes.c_void_p, ctypes.c_int


def _bind(name, restype, *argtypes):
    try:
        function = getattr(_LIB, name)
    except AttributeError:
        raise ImportError(f"{LIBRARY} resolves no libcrypto symbol {name}") from None
    function.restype, function.argtypes = restype, argtypes
    return function


_CIPHERS = {16: _bind("EVP_aes_128_ctr", _P)(), 24: _bind("EVP_aes_192_ctr", _P)(),
            32: _bind("EVP_aes_256_ctr", _P)()}
_ctx_new = _bind("EVP_CIPHER_CTX_new", _P)
_ctx_free = _bind("EVP_CIPHER_CTX_free", None, _P)
_encrypt_init = _bind("EVP_EncryptInit_ex", _INT, _P, _P, _P, ctypes.c_char_p, ctypes.c_char_p)
_encrypt_update = _bind("EVP_EncryptUpdate", _INT, _P, ctypes.c_char_p,
                        ctypes.POINTER(_INT), ctypes.c_char_p, _INT)
_bn_ctx_new = _bind("BN_CTX_new", _P)
_bn_ctx_free = _bind("BN_CTX_free", None, _P)
_bn_bin2bn = _bind("BN_bin2bn", _P, ctypes.c_char_p, _INT, _P)
_bn_new = _bind("BN_new", _P)
_bn_bn2binpad = _bind("BN_bn2binpad", _INT, _P, ctypes.c_char_p, _INT)
_bn_clear_free = _bind("BN_clear_free", None, _P)
_bn_mod_exp_consttime = _bind("BN_mod_exp_mont_consttime", _INT, _P, _P, _P, _P, _P, _P)
_bn_mod_exp_public = _bind("BN_mod_exp_mont", _INT, _P, _P, _P, _P, _P, _P)


def aes_ctr(key: bytes, iv: bytes, data: bytes) -> bytes:
    """AES-CTR over *data* from the 16-byte big-endian counter block *iv*.

    The counter wraps modulo 2¹²⁸.  Encryption and decryption are the
    same call.  *key* selects AES-128, -192 or -256 by its length.
    """
    cipher = _CIPHERS.get(len(key))
    if cipher is None:
        raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
    if len(iv) != 16:
        raise ValueError(f"CTR IV must be 16 bytes, got {len(iv)}")
    data = bytes(data)
    if not data:
        return b""
    out, written = ctypes.create_string_buffer(len(data)), _INT()
    ctx = _ctx_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    try:
        if (_encrypt_init(ctx, cipher, None, bytes(key), bytes(iv)) != 1
                or _encrypt_update(ctx, out, ctypes.byref(written), data, len(data)) != 1
                or written.value != len(data)):
            raise RuntimeError("OpenSSL AES-CTR failed")
    finally:
        _ctx_free(ctx)
    return out.raw


def mod_pow(base: int, exponent: int, modulus: int, *, public_exponent: bool = False) -> int:
    """``pow(base, exponent, modulus)`` for non-negative ints and an odd modulus.

    Constant-time in the exponent unless *public_exponent* says there is
    nothing to hide.
    """
    if base < 0 or exponent < 0 or modulus < 0:
        raise ValueError("mod_pow takes non-negative integers")
    if modulus % 2 == 0:
        raise ValueError("mod_pow needs an odd modulus")
    size = (modulus.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    # Every conversion that can raise runs before the first allocation.
    raws = [value.to_bytes((value.bit_length() + 7) // 8, "big")
            for value in (base, exponent, modulus)]
    ctx = _bn_ctx_new()
    numbers = [_bn_bin2bn(raw, len(raw), None) for raw in raws] + [_bn_new()]
    try:
        if not ctx or not all(numbers):
            raise MemoryError("OpenSSL BIGNUM allocation failed")
        a, p, m, result = numbers
        power = _bn_mod_exp_public if public_exponent else _bn_mod_exp_consttime
        if power(result, a, p, m, ctx, None) != 1 or _bn_bn2binpad(result, out, size) != size:
            raise RuntimeError("OpenSSL modular exponentiation failed")
    finally:
        for number in numbers:
            _bn_clear_free(number)
        _bn_ctx_free(ctx)
    return int.from_bytes(out.raw, "big")
