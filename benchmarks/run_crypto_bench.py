"""Emit ``BENCH_crypto.json``: crypto speedups over the seed and builtin ``pow``.

Measures the symmetric hot path — OpenSSL's AES-CTR through
:mod:`repro.crypto.libcrypto`, and the pseudonym permutation of
:mod:`repro.crypto.prp` — against the straight-line seed implementation
preserved as the test oracle ``tests/oracles/aes_reference.py`` (for
pseudonyms, the paper's constant-IV CTR on the same 48-byte identifier
block), and RSA's two raw operations against
CPython's builtin ``pow``: the private operation (one
``RSA_private_decrypt`` on the OpenSSL handle of a fixed-seed 1024-bit
key) against the no-CRT ``pow(value, d, n)``, and the public operation
OAEP encryption runs (one ``RSA_public_encrypt``) against
``pow(value, e, n)``.  It writes the results to ``BENCH_crypto.json`` at
the repository root.  Later changes to the crypto stack should re-run
this script and must not regress the recorded speedups::

    PYTHONPATH=src python benchmarks/run_crypto_bench.py

Acceptance floors (``FLOORS``): ``RealCryptoProvider.pseudonymize`` on
hot ids, one cold pseudonym, ``ctr_transform`` over 1 KiB payloads, and
both RSA operations.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import sys
import time
import timeit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.crypto import ctr, prp
from repro.crypto.envelope import encode_identifier
from repro.crypto.provider import RealCryptoProvider
from repro.crypto.rsa import generate_keypair
from tests.oracles.aes_reference import reference_ctr_transform, reference_det_encrypt

OUTPUT = REPO_ROOT / "BENCH_crypto.json"

KEY = bytes(range(32))
IV = bytes(16)
PAYLOAD_1K = bytes(i % 256 for i in range(1024))
HOT_IDS = [encode_identifier("user-%011d" % i) for i in range(64)]
COLD_ID = encode_identifier("user-00000000042")

# Speedup floors, each about half of the lower end of what five runs
# measured when they were set (a noisy 2-core host, CPython 3.11,
# OpenSSL 3.0), for other interpreters, OpenSSL builds and machines.
# Against the seed reference: ctr_transform_1KiB 678x to 1,262x,
# real_provider_pseudonymize_hot64 278x to 545x (501x to 898x on 48-byte
# ids), and pseudonym_prp_48B -- one cold pseudonym, the four BLAKE2b
# rounds of repro.crypto.prp, against the paper's constant-IV CTR in
# the oracle over the same 48-byte block -- 35x to 49x (6.1 to 10.6 us
# against 283 to 481 us), six runs.  Against CPython's builtin pow:
# rsa_private_1024 (one RSA_private_decrypt without padding on a loaded
# key -- OpenSSL's CRT with cached Montgomery contexts, blinding and its
# CRT check -- vs the no-CRT pow(value, d, n)) 37x to 42x (36x to 45x in
# three earlier runs), where the two constant-time mod_pow calls and the
# Python Garner step it replaced measured 28x to 30x on the same host;
# rsa_public_1024 (one RSA_public_encrypt without padding on a loaded
# key, vs pow(value, e, n)) 6.3x to 7.9x (5.7x to 6.2x earlier), where
# one mod_pow call with the public e measured 2.3x to 2.5x.
FLOORS = {
    "ctr_transform_1KiB": 350.0,
    "pseudonym_prp_48B": 18.0,
    "real_provider_pseudonymize_hot64": 150.0,
    "rsa_private_1024": 18.0,
    "rsa_public_1024": 2.8,
}


def _best_us(fn, number: int, repeat: int = 5) -> float:
    """Best-of-*repeat* mean microseconds per call of *fn*."""
    timer = timeit.Timer(fn)
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def _measure() -> dict:
    provider = RealCryptoProvider()
    for identifier in HOT_IDS:  # steady state: memo warm
        provider.pseudonymize(KEY, identifier)

    def pseudonymize_hot():
        for identifier in HOT_IDS:
            provider.pseudonymize(KEY, identifier)

    def reference_pseudonymize_hot():
        for identifier in HOT_IDS:
            reference_det_encrypt(KEY, identifier)

    public, private = generate_keypair(random.Random(7).randrange)
    value = random.Random(1).randrange(private.n)
    block = value.to_bytes(private.modulus_bytes, "big")
    private_handle, public_handle = private._handle, public._handle

    cases = {
        "ctr_transform_1KiB": (
            lambda: ctr.ctr_transform(KEY, IV, PAYLOAD_1K),
            lambda: reference_ctr_transform(KEY, IV, PAYLOAD_1K),
            50,
        ),
        "pseudonym_prp_48B": (
            lambda: prp.encipher(KEY, COLD_ID),
            lambda: reference_det_encrypt(KEY, COLD_ID),
            2000,
        ),
        "real_provider_pseudonymize_hot64": (
            pseudonymize_hot,
            reference_pseudonymize_hot,
            20,
        ),
        "rsa_private_1024": (
            lambda: private_handle.private_op(block),
            lambda: pow(value, private.d, private.n),
            500,
        ),
        "rsa_public_1024": (
            lambda: public_handle.public_op(block),
            lambda: pow(value, private.e, private.n),
            2000,
        ),
    }

    results = {}
    for name, (optimized, reference, number) in cases.items():
        optimized_us = _best_us(optimized, number)
        reference_us = _best_us(reference, max(number // 10, 5))
        results[name] = {
            "optimized_us": round(optimized_us, 3),
            "reference_us": round(reference_us, 3),
            "speedup": round(reference_us / optimized_us, 2),
        }
    return results


def main() -> int:
    results = _measure()
    report = {
        "benchmark": "crypto hot path, package vs seed reference and builtin pow",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "microseconds per call (best of 5 timeit repeats)",
        "results": results,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in results.items():
        print(f"{name:36s} {entry['optimized_us']:>12.1f} us"
              f"  (seed {entry['reference_us']:>12.1f} us, {entry['speedup']:.1f}x)")
    print(f"\nwrote {OUTPUT}")
    failed = [
        f"{name}: {results[name]['speedup']}x < {floor}x"
        for name, floor in FLOORS.items()
        if results[name]["speedup"] < floor
    ]
    if failed:
        print("SPEEDUP FLOOR VIOLATED: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
