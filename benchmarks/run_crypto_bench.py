"""Emit ``BENCH_crypto.json``: optimized-vs-seed crypto speedups.

Measures the symmetric hot path rebuilt in the crypto overhaul PR
against the straight-line seed implementation preserved as the test
oracle ``tests/oracles/aes_reference.py``, and writes the results to
``BENCH_crypto.json`` at the repository root.  Future PRs touching the
crypto stack should re-run this script and must not regress the
recorded speedups::

    PYTHONPATH=src python benchmarks/run_crypto_bench.py

Acceptance floors: >= 5x on ``RealCryptoProvider.pseudonymize`` (hot
ids, from the overhaul PR), and on the plane-sliced CTR kernel
``ctr_transform`` over 1 KiB payloads and the 85-block keystream the
end-to-end ``micro_get`` workload issues per recommendation list (see
``FLOORS`` for the measured speedups the floors were set from).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
import timeit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.crypto import ctr
from repro.crypto.aes import AES
from repro.crypto.provider import RealCryptoProvider
from tests.oracles.aes_reference import (
    ReferenceAES,
    reference_ctr_transform,
    reference_det_encrypt,
)

OUTPUT = REPO_ROOT / "BENCH_crypto.json"

KEY = bytes(range(32))
IV = bytes(16)
BLOCK = bytes(range(16))
PAYLOAD_1K = bytes(i % 256 for i in range(1024))
HOT_IDS = [b"user-%011d" % i for i in range(64)]
COUNTER = 0x0123456789ABCDEF_FEDCBA9876543210

# Speedup floors vs the seed reference.  The CTR floors are what the
# plane-sliced kernel measured when they were set (21.5x and 22.6x on
# ctr_transform_1KiB, 23.1x and 23.2x on ctr_keystream_85_blocks, two
# runs on a noisy 2-core sandbox, CPython 3.11) less a margin of about
# half, for other interpreters and machines.  The per-block loop it
# replaced measured 3.3x on ctr_transform_1KiB against a floor of 3x.
FLOORS = {
    "real_provider_pseudonymize_hot64": 5.0,
    "ctr_transform_1KiB": 10.0,
    "ctr_keystream_85_blocks": 10.0,
}


def _best_us(fn, number: int, repeat: int = 5) -> float:
    """Best-of-*repeat* mean microseconds per call of *fn*."""
    timer = timeit.Timer(fn)
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def _measure() -> dict:
    cipher = AES(KEY)
    reference_cipher = ReferenceAES(KEY)

    provider = RealCryptoProvider()
    for identifier in HOT_IDS:  # steady state: memo + keystream warm
        provider.pseudonymize(KEY, identifier)

    def pseudonymize_hot():
        for identifier in HOT_IDS:
            provider.pseudonymize(KEY, identifier)

    def reference_pseudonymize_hot():
        for identifier in HOT_IDS:
            reference_det_encrypt(KEY, identifier)

    cases = {
        "block_encrypt": (
            lambda: cipher.encrypt_block(BLOCK),
            lambda: reference_cipher.encrypt_block(BLOCK),
            2000,
        ),
        "ctr_transform_1KiB": (
            lambda: ctr.ctr_transform(KEY, IV, PAYLOAD_1K),
            lambda: reference_ctr_transform(KEY, IV, PAYLOAD_1K),
            50,
        ),
        "ctr_keystream_85_blocks": (
            lambda: cipher.encrypt_ctr_blocks(COUNTER, 85),
            lambda: [
                reference_cipher.encrypt_block((COUNTER + i).to_bytes(16, "big"))
                for i in range(85)
            ],
            50,
        ),
        "det_encrypt_32B": (
            lambda: ctr.det_encrypt(KEY, b"user-0000000000000000000042!!!!!"),
            lambda: reference_det_encrypt(KEY, b"user-0000000000000000000042!!!!!"),
            2000,
        ),
        "real_provider_pseudonymize_hot64": (
            pseudonymize_hot,
            reference_pseudonymize_hot,
            20,
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
        "benchmark": "crypto hot path, optimized vs seed reference",
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
