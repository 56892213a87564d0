"""Emit ``BENCH_wire.json``: binary wire codec vs JSON, batched envelopes.

Measures the zero-copy binary wire protocol introduced by the codec PR
against the seed JSON wire on the protected-hop payload paths, and the
batch envelope (one hybrid RSA-OAEP seal per shuffle flush) against
the seed's per-request envelopes.  Results go to ``BENCH_wire.json``
at the repository root.  Future PRs touching the wire stack should
re-run this script and must not regress the recorded numbers::

    PYTHONPATH=src python benchmarks/run_wire_bench.py

Acceptance floors from the codec PR:

* >= 5x encode+decode throughput on the recommendation item payload
  (the volume path: fixed-size identifier lists, §4.3) — binary
  concatenates and slices raw 48-byte blobs where JSON pays base64
  both ways plus list serialization;
* >= 2.5x on the response-frame round trip (the 1 KiB sealed
  recommendation blob: base64 inflation + JSON string escaping vs a
  zero-copy length-prefixed field; measures ~3.1x, floored with CI
  headroom);
* >= 3x per-request envelope cost reduction for ``seal_batch``/
  ``open_batch`` over ``seal_each``/``open_each`` at the default
  shuffle size S=16 (RSA-1024, :class:`RealCryptoProvider` — the
  paper's crypto configuration);
* >= 0.9x (a no-regression guard, not a speedup claim) on the small
  request-frame round trip: tiny frames are dominated by message
  construction, which both codecs pay, and the C-accelerated ``json``
  module is genuinely fast there — the binary win on that path is
  the wire *size* (no base64), which the report also records.

And one floor that is not binary-vs-JSON: ``hop_forward`` times one
whole hop of a 20-item response — :func:`repro.rest.codec.ship`, a
real :class:`Network`, the receiver's parse — for a message the hop
left untouched (its bytes are forwarded) against the same message
rewritten by ``with_fields`` (encoded again), under each codec; the
forwarded hop must be >= 1.5x faster under both (measures 1.7-1.9x).
The receiver parses in both, and the timed loop asserts the fields it
got: a floor that could be met by skipping the parse would be no
floor.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import sys
import time
import timeit

from repro.crypto.envelope import FIXED_ID_BYTES, EnvelopeCodec, pad_item_list
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.crypto.rsa import RSA_BITS
from repro.rest.codec import BINARY_WIRE_CODEC, JSON_WIRE_CODEC, WireFrame, ship
from repro.rest.messages import Request, Response, Verb
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_wire.json"

SHUFFLE_SIZE = 16  # the paper's default S
RSA_CIPHERTEXT_BYTES = RSA_BITS // 8

FLOORS = {
    "item_payload_roundtrip": 5.0,
    "response_frame_roundtrip": 2.5,
    f"envelope_flush_S{SHUFFLE_SIZE}_rsa{RSA_BITS}": 3.0,
    "request_frame_roundtrip": 0.9,
    "hop_forward": 1.5,
}


def _best_us(fn, number: int, repeat: int = 5) -> float:
    """Best-of-*repeat* mean microseconds per call of *fn*."""
    timer = timeit.Timer(fn)
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def _deterministic_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(length))


def _fixtures(rng: random.Random) -> dict:
    """Deterministic stand-ins for the crypto-boundary values."""
    items = pad_item_list([f"item-{index:04d}" for index in range(10)])
    item_blobs = EnvelopeCodec.encode_identifiers(items)
    return {
        "pseudonym": _deterministic_bytes(rng, FIXED_ID_BYTES),
        "tmpkey_sealed": _deterministic_bytes(rng, RSA_CIPHERTEXT_BYTES),
        "item_blobs": item_blobs,
        # sym_encrypt(k_u, pack_items(...)) sized: payload + IV.
        "response_blob": _deterministic_bytes(
            rng, len(item_blobs) * FIXED_ID_BYTES + 16
        ),
    }


def _make_request(codec, fixtures) -> Request:
    """A UA->IA ``get(u)`` as it leaves the shuffler: pseudonym text,
    sealed temporary key, stamped deadline and trace id."""
    return Request(
        verb=Verb.GET,
        fields={
            "user": EnvelopeCodec.wire_text(fixtures["pseudonym"]),
            "tmpkey": codec.wire_value(fixtures["tmpkey_sealed"]),
            "deadline": "000004.50000",
            "trace": "0123456789abcdef",
        },
        request_id=1,
        client_address="ua-0",
    )


def _codec_cases(fixtures) -> dict:
    """Each case: (binary closure, json closure, timeit number)."""
    item_blobs = fixtures["item_blobs"]
    response_blob = fixtures["response_blob"]

    def item_payload(codec):
        # IA encodes the padded identifier list; the client-side
        # library slices it back out after sym_decrypt.
        def run():
            codec.unpack_items(codec.pack_items(item_blobs))
        return run

    def response_frame(codec):
        # IA -> UA leg of a recommendation: blob to wire form, frame
        # encode, frame decode, blob back to the crypto boundary.
        def run():
            response = Response(
                status=200,
                fields={"blob": codec.wire_value(response_blob)},
                request_id=1,
            )
            decoded = codec.decode_response(codec.encode_response(response))
            codec.blob_value(decoded.fields["blob"])
        return run

    def request_frame(codec):
        request = _make_request(codec, fixtures)

        def run():
            decoded = codec.decode_request(
                codec.encode_request(request), verb=Verb.GET
            )
            codec.blob_value(decoded.fields["tmpkey"])
        return run

    return {
        "item_payload_roundtrip": (
            item_payload(BINARY_WIRE_CODEC), item_payload(JSON_WIRE_CODEC), 2000,
        ),
        "response_frame_roundtrip": (
            response_frame(BINARY_WIRE_CODEC), response_frame(JSON_WIRE_CODEC), 2000,
        ),
        "request_frame_roundtrip": (
            request_frame(BINARY_WIRE_CODEC), request_frame(JSON_WIRE_CODEC), 2000,
        ),
    }


def _measure_codecs(fixtures) -> dict:
    results = {}
    for name, (binary_fn, json_fn, number) in _codec_cases(fixtures).items():
        binary_us = _best_us(binary_fn, number)
        json_us = _best_us(json_fn, number)
        results[name] = {
            "binary_us": round(binary_us, 3),
            "json_us": round(json_us, 3),
            "speedup": round(json_us / binary_us, 2),
        }
    return results


def _wire_sizes(fixtures) -> dict:
    """Bytes on the wire per codec for the two hot messages."""
    sizes = {}
    for codec in (JSON_WIRE_CODEC, BINARY_WIRE_CODEC):
        request = _make_request(codec, fixtures)
        response = Response(
            status=200,
            fields={"blob": codec.wire_value(fixtures["response_blob"])},
            request_id=1,
        )
        sizes[codec.name] = {
            "request_bytes": codec.request_size_bytes(request),
            "response_bytes": codec.response_size_bytes(response),
        }
    sizes["reduction"] = {
        "request": round(
            1 - sizes["binary"]["request_bytes"] / sizes["json"]["request_bytes"], 3
        ),
        "response": round(
            1 - sizes["binary"]["response_bytes"] / sizes["json"]["response_bytes"], 3
        ),
    }
    return sizes


def _measure_envelopes(rng: random.Random, fixtures) -> dict:
    """Batch envelope vs per-request envelopes at one shuffle flush."""
    provider = RealCryptoProvider()
    keys = KeyFactory(
        rng_int=rng.randrange,
        rng_bytes=lambda n: _deterministic_bytes(rng, n),
    ).layer_keys()
    public = keys.public_material
    envelopes = EnvelopeCodec(provider)

    frames = [
        BINARY_WIRE_CODEC.encode_request(
            Request(
                verb=Verb.GET,
                fields={
                    "user": EnvelopeCodec.wire_text(
                        _deterministic_bytes(rng, FIXED_ID_BYTES)
                    ),
                    "tmpkey": _deterministic_bytes(rng, RSA_CIPHERTEXT_BYTES),
                },
                request_id=index,
                client_address="ua-0",
            )
        )
        for index in range(SHUFFLE_SIZE)
    ]

    def batch():
        blob = envelopes.seal_batch(public, frames)
        envelopes.open_batch(keys, blob)

    def per_request():
        blobs = envelopes.seal_each(public, frames)
        envelopes.open_each(keys, blobs)

    batch_us = _best_us(batch, number=5, repeat=3)
    each_us = _best_us(per_request, number=2, repeat=3)
    return {
        f"envelope_flush_S{SHUFFLE_SIZE}_rsa{RSA_BITS}": {
            "batch_us": round(batch_us, 1),
            "per_request_us": round(each_us, 1),
            "batch_amortized_per_request_us": round(batch_us / SHUFFLE_SIZE, 1),
            "seed_per_request_us": round(each_us / SHUFFLE_SIZE, 1),
            "speedup": round(each_us / batch_us, 2),
        }
    }


def _measure_hop_forward(rng: random.Random) -> dict:
    """One hop of an LRS answer, forwarded against re-encoded."""
    items = [
        EnvelopeCodec.wire_text(_deterministic_bytes(rng, FIXED_ID_BYTES))
        for _ in range(20)
    ]
    entry = {}
    for codec in (BINARY_WIRE_CODEC, JSON_WIRE_CODEC):
        loop = EventLoop()
        network = Network(loop=loop, rng=random.Random(1))
        # As the hop got it: parsed off the wire, so it remembers its bytes.
        arrived = WireFrame.for_message(
            codec, Response(status=200, fields={"items": items}, request_id=1)
        ).decode()
        rewritten = arrived.with_fields()  # same value, built here: no memo
        assert arrived.arrived_as is not None and rewritten.arrived_as is None
        delivered = []

        def hop(message):
            def run():
                ship(network, codec, "ia-0", "ua-0", message, delivered.append)
                loop.run()
                if delivered.pop().fields["items"] != items:
                    raise AssertionError("receiver did not parse what was sent")
            return run

        # The two sides alternate, so a slow stretch of the host falls
        # on both; best of each, as everywhere in this file.
        timers = timeit.Timer(hop(arrived)), timeit.Timer(hop(rewritten))
        rounds = [[timer.timeit(1000) for timer in timers] for _ in range(15)]
        forwarded_us, rewritten_us = (min(side) / 1000 * 1e6 for side in zip(*rounds))
        entry[codec.name] = {
            "forwarded_us": round(forwarded_us, 3),
            "rewritten_us": round(rewritten_us, 3),
            "speedup": round(rewritten_us / forwarded_us, 2),
        }
    # The floor applies to the codec that gains least.
    entry["speedup"] = min(entry[name]["speedup"] for name in ("binary", "json"))
    return {"hop_forward": entry}


def main() -> int:
    rng = random.Random(20260808)
    fixtures = _fixtures(rng)
    results = {}
    results.update(_measure_codecs(fixtures))
    results.update(_measure_envelopes(rng, fixtures))
    results.update(_measure_hop_forward(rng))
    report = {
        "benchmark": "binary wire codec vs seed JSON wire; batch vs per-request envelopes;"
                     " forwarded vs re-encoded hop",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "microseconds per call (best of timeit repeats)",
        "shuffle_size": SHUFFLE_SIZE,
        "rsa_bits": RSA_BITS,
        "results": results,
        "wire_sizes": _wire_sizes(fixtures),
        "floors": FLOORS,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    hop_forward = results["hop_forward"]
    for name, entry in results.items():
        if entry is hop_forward:
            continue  # forwarded vs rewritten per codec, printed below
        fast = entry.get("binary_us", entry.get("batch_us"))
        slow = entry.get("json_us", entry.get("per_request_us"))
        print(f"{name:36s} {fast:>12.1f} us"
              f"  (seed {slow:>12.1f} us, {entry['speedup']:.1f}x)")
    for name in ("binary", "json"):
        entry = hop_forward[name]
        print(f"{'hop_forward (' + name + ')':36s} {entry['forwarded_us']:>12.1f} us"
              f"  (rewritten {entry['rewritten_us']:>7.1f} us, {entry['speedup']:.1f}x)")
    sizes = report["wire_sizes"]
    print(f"{'wire size: get request':36s} {sizes['binary']['request_bytes']:>8d} B"
          f"  (seed {sizes['json']['request_bytes']:>8d} B,"
          f" -{sizes['reduction']['request']:.0%})")
    print(f"{'wire size: items response':36s} {sizes['binary']['response_bytes']:>8d} B"
          f"  (seed {sizes['json']['response_bytes']:>8d} B,"
          f" -{sizes['reduction']['response']:.0%})")
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
