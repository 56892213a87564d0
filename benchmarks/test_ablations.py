"""Ablations of PProx design choices (DESIGN.md §6).

Not figures from the paper — sensitivity studies of the knobs the
design fixes: shuffle flush timeout, load-balancing policy, the
hardened client hop's cost, and crypto provider overhead (host CPU,
not simulated latency).
"""

from __future__ import annotations

import time

from conftest import SEED

from repro.cluster.deployments import MICRO_CONFIGS
from repro.crypto.envelope import encode_identifier
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.experiments.runner import run_micro
from repro.proxy.config import PProxConfig

DURATION = 15.0
TRIM = 4.0
M6 = MICRO_CONFIGS["m6"]
M7 = MICRO_CONFIGS["m7"]


def test_ablation_shuffle_timeout(benchmark):
    """Shorter flush timers cap worst-case latency at thin traffic but
    weaken the anonymity set (timer flushes release partial batches)."""

    def sweep():
        return {
            timeout: run_micro(
                M6, 50, seed=SEED, runs=1, duration=DURATION, trim=TRIM,
                shuffle_timeout=timeout,
            )
            for timeout in (0.05, 0.25, 1.0)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("== ablation: shuffle flush timeout at 50 RPS (S=10) ==")
    medians = {}
    for timeout, result in results.items():
        medians[timeout] = result.summary().median
        print(f"timeout={timeout:5.2f}s  median={medians[timeout] * 1000:7.1f} ms")
    assert medians[0.05] < medians[0.25] <= medians[1.0]


def test_ablation_balancing_policy(benchmark):
    """Random vs round-robin vs least-pending at a scaled deployment."""

    def sweep():
        results = {}
        for policy in ("random", "round-robin", "least-pending"):
            override = PProxConfig(
                shuffle_size=10, ua_instances=2, ia_instances=2, balancing=policy
            )
            results[policy] = run_micro(
                M7, 500, seed=SEED, runs=1, duration=DURATION, trim=TRIM,
                pprox_override=override,
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("== ablation: load-balancing policy (m7-shaped, 500 RPS) ==")
    for policy, result in results.items():
        print(f"{policy:14s} median={result.summary().median * 1000:7.1f} ms"
              f" sat={result.saturated}")
    assert all(not r.saturated for r in results.values())


def test_ablation_hardened_client_hop(benchmark):
    """The hardening extension costs little on top of m6."""

    def sweep():
        plain = run_micro(M6, 250, seed=SEED, runs=1, duration=DURATION, trim=TRIM)
        hardened = run_micro(
            M6, 250, seed=SEED, runs=1, duration=DURATION, trim=TRIM,
            pprox_override=PProxConfig(shuffle_size=10, harden_client_hop=True),
        )
        return plain, hardened

    plain, hardened = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("== ablation: hardened client hop at 250 RPS (S=10) ==")
    print(f"paper protocol   median={plain.summary().median * 1000:7.1f} ms")
    print(f"hardened hop     median={hardened.summary().median * 1000:7.1f} ms")
    assert not hardened.saturated
    assert hardened.summary().median < 2 * plain.summary().median


def test_ablation_crypto_provider_host_cost(benchmark):
    """The paper's AES-CTR vs the keyed-BLAKE2 sim provider: host CPU
    for the symmetric work of one get — a pseudonym round trip on an
    identifier neither has seen, and a 640-byte recommendation list
    sealed and opened (simulated latency is identical by design)."""

    def measure():
        timings = {}
        identifiers = [encode_identifier(f"user-{index}") for index in range(300)]
        recommendations = bytes(640)
        for provider in (RealCryptoProvider(), SimCryptoProvider()):
            key = bytes(range(32))
            start = time.perf_counter()
            for identifier in identifiers:
                pseudonym = provider.pseudonymize(key, identifier)
                provider.depseudonymize(key, pseudonym)
                provider.sym_decrypt(key, provider.sym_encrypt(key, recommendations))
            timings[provider.name] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("== ablation: symmetric host cost of a get (300 gets) ==")
    for name, elapsed in timings.items():
        print(f"{name:5s} {elapsed * 1000:8.1f} ms")
    assert timings["sim"] < timings["real"]


def test_ablation_padding_wire_cost(benchmark):
    """Padding all responses to 20 entries costs bandwidth; measure
    the constant wire size against an unpadded JSON encoding."""

    def measure():
        import json

        from repro.crypto.envelope import EnvelopeCodec, pad_item_list

        padded_sizes = set()
        unpadded_sizes = set()
        for count in (1, 5, 20):
            items = [f"movie-{n}" for n in range(count)]
            padded = [EnvelopeCodec.wire_text(encode_identifier(i)) for i in pad_item_list(items)]
            padded_sizes.add(len(json.dumps(padded)))
            unpadded_sizes.add(len(json.dumps(items)))
        return padded_sizes, unpadded_sizes

    padded_sizes, unpadded_sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("== ablation: response padding wire cost ==")
    print(f"padded body sizes:   {sorted(padded_sizes)} (constant)")
    print(f"unpadded body sizes: {sorted(unpadded_sizes)} (leaks count)")
    assert len(padded_sizes) == 1
    assert len(unpadded_sizes) == 3
