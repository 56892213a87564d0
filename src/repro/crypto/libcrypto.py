"""AES-CTR, RSA and modular powers in the libcrypto CPython's ``hashlib`` loads.

The paper's enclaves run AES-256-CTR and RSA in SGX-SSL, which is
OpenSSL's libcrypto.  CPython's ``_hashlib`` links that library (PEP 644:
OpenSSL ≥ 1.1.1), so :mod:`ctypes` reaches its ``EVP_*``, ``BN_*`` and
``RSA_*`` symbols through the extension's own dependencies.  Lengths,
signs, ranges and moduli are checked in Python before any C call, since
OpenSSL reads past a short buffer rather than reject it; every return
code is checked, and a failing call clears the thread's OpenSSL error
queue before it raises, so no stale reason surfaces in a later
``hashlib`` or ``ssl`` error.

An :class:`RsaHandle` is one key loaded into an OpenSSL ``RSA`` object
through the legacy ``RSA_set0_*`` setters (present in 1.1.1 and 3.x)
and freed once, by a finalizer, when the handle is collected.  Its
private operation is ``RSA_private_decrypt`` without padding: OpenSSL's
CRT with Montgomery contexts cached on the key, blinding, and a check
of the CRT result against the public exponent.  Its public operation is
``RSA_public_encrypt`` without padding.  OAEP stays with the caller.

:func:`mod_pow` serves what is left (Miller-Rabin): secret exponents
take ``BN_mod_exp_mont_consttime``, a public one plain
``BN_mod_exp_mont``.  :func:`aes_ctr` and :func:`mod_pow` free their
cipher context, BIGNUMs (``BN_clear_free``) and ``BN_CTX`` before they
return.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import NoReturn, Optional, Tuple

try:
    import _hashlib
except ImportError as error:  # pragma: no cover - CPython built without OpenSSL
    raise ImportError("repro.crypto needs CPython's _hashlib, which links libcrypto") from error

__all__ = ["LIBRARY", "RsaHandle", "aes_ctr", "mod_pow"]

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
_rsa_new = _bind("RSA_new", _P)
_rsa_free = _bind("RSA_free", None, _P)
_rsa_set0_key = _bind("RSA_set0_key", _INT, _P, _P, _P, _P)
_rsa_set0_factors = _bind("RSA_set0_factors", _INT, _P, _P, _P)
_rsa_set0_crt_params = _bind("RSA_set0_crt_params", _INT, _P, _P, _P, _P)
_rsa_private_decrypt = _bind("RSA_private_decrypt", _INT, _INT, ctypes.c_char_p,
                             ctypes.c_char_p, _P, _INT)
_rsa_public_encrypt = _bind("RSA_public_encrypt", _INT, _INT, ctypes.c_char_p,
                            ctypes.c_char_p, _P, _INT)
_err_clear_error = _bind("ERR_clear_error", None)

_RSA_NO_PADDING = 3


def _fail(error: type, message: str) -> NoReturn:
    """Raise *error* after emptying the thread's OpenSSL error queue."""
    _err_clear_error()
    raise error(message)


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
        _fail(MemoryError, "EVP_CIPHER_CTX_new failed")
    try:
        if (_encrypt_init(ctx, cipher, None, bytes(key), bytes(iv)) != 1
                or _encrypt_update(ctx, out, ctypes.byref(written), data, len(data)) != 1
                or written.value != len(data)):
            _fail(RuntimeError, "OpenSSL AES-CTR failed")
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
            _fail(MemoryError, "OpenSSL BIGNUM allocation failed")
        a, p, m, result = numbers
        power = _bn_mod_exp_public if public_exponent else _bn_mod_exp_consttime
        if power(result, a, p, m, ctx, None) != 1 or _bn_bn2binpad(result, out, size) != size:
            _fail(RuntimeError, "OpenSSL modular exponentiation failed")
    finally:
        for number in numbers:
            _bn_clear_free(number)
        _bn_ctx_free(ctx)
    return int.from_bytes(out.raw, "big")


class RsaHandle:
    """An RSA key loaded into OpenSSL once, for raw (unpadded) operations.

    ``RsaHandle(n, e)`` holds a public key; passing *private* as
    ``(d, p, q, dP, dQ, qInv)`` holds the two-prime private key too.
    The ``RSA`` object is freed exactly once, by a finalizer, when the
    handle is collected; a handle cannot be copied or pickled — its
    owner reloads one instead.
    """

    __slots__ = ("size", "_modulus", "_pointer", "__weakref__")

    def __init__(self, n: int, e: int,
                 private: Optional[Tuple[int, int, int, int, int, int]] = None) -> None:
        if n % 2 == 0 or min((n, e) + (private or ())) < 1:
            raise ValueError("RSA needs an odd modulus and positive key values")
        self.size = (n.bit_length() + 7) // 8
        self._modulus = n.to_bytes(self.size, "big")
        pointer = _rsa_new()
        if not pointer:
            _fail(MemoryError, "RSA_new failed")
        # From here on the finalizer owns the RSA object, and RSA_free
        # frees (clearing) every BIGNUM a set0 call handed to it.
        self._pointer = pointer
        weakref.finalize(self, _rsa_free, pointer)
        d, p, q, d_p, d_q, q_inverse = private or (None,) * 6
        _set0(_rsa_set0_key, pointer, n, e, d)
        if private:
            _set0(_rsa_set0_factors, pointer, p, q)
            _set0(_rsa_set0_crt_params, pointer, d_p, d_q, q_inverse)

    def private_op(self, block: bytes) -> bytes:
        """``block ** d mod n`` as ``size`` big-endian bytes."""
        return self._apply(_rsa_private_decrypt, block)

    def public_op(self, block: bytes) -> bytes:
        """``block ** e mod n`` as ``size`` big-endian bytes."""
        return self._apply(_rsa_public_encrypt, block)

    def _apply(self, operation, block: bytes) -> bytes:
        block = bytes(block)
        if len(block) != self.size:
            raise ValueError(f"RSA block must be {self.size} bytes, got {len(block)}")
        # Equal-length big-endian strings order as the integers do.
        if block >= self._modulus:
            raise ValueError("RSA block is not below the modulus")
        out = ctypes.create_string_buffer(self.size)
        if operation(self.size, block, out, self._pointer, _RSA_NO_PADDING) != self.size:
            _fail(RuntimeError, "OpenSSL RSA operation failed")
        return out.raw

    def __reduce__(self):
        raise TypeError("an RsaHandle is not copied; load the key again")


def _set0(setter, pointer, *values: Optional[int]) -> None:
    """Hand fresh BIGNUMs of *values* (``None`` stays NULL) to *setter*."""
    raws = [None if value is None else value.to_bytes((value.bit_length() + 7) // 8, "big")
            for value in values]
    numbers = [None if raw is None else _bn_bin2bn(raw, len(raw), None) for raw in raws]
    if all(number or raw is None for number, raw in zip(numbers, raws)):
        if setter(pointer, *numbers) == 1:
            return
    for number in numbers:
        _bn_clear_free(number)
    _fail(MemoryError, "OpenSSL RSA key load failed")
