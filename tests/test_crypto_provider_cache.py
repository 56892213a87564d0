"""Provider hot-path machinery: pseudonym LRU memo, xor helper, batching."""

from __future__ import annotations

import pytest

from repro.crypto import prp, provider as provider_module
from repro.crypto.envelope import encode_identifier
from repro.crypto.provider import (
    RealCryptoProvider,
    SimCryptoProvider,
    _LruMemo,
)
from repro.crypto.xor import xor_bytes
from repro.simnet.clock import EventLoop
from repro.telemetry import Telemetry, instrument_crypto

KEY = bytes(range(32))


def ids(*names):
    return [encode_identifier(name) for name in names]


# ---------------------------------------------------------------- xor_bytes


def test_xor_bytes_matches_per_byte_loop():
    a = bytes(range(200))
    b = bytes((i * 7 + 3) % 256 for i in range(200))
    assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


def test_xor_bytes_truncates_to_shorter_input():
    assert xor_bytes(b"\xff\xff\xff", b"\x0f") == b"\xf0"
    assert xor_bytes(b"\x0f", b"\xff\xff\xff") == b"\xf0"


def test_xor_bytes_empty():
    assert xor_bytes(b"", b"anything") == b""
    assert xor_bytes(b"anything", b"") == b""


def test_xor_bytes_preserves_leading_zero_bytes():
    assert xor_bytes(b"\x00\x00\x01", b"\x00\x00\x00") == b"\x00\x00\x01"


def test_xor_bytes_is_involution():
    data = bytes(range(64))
    stream = bytes(reversed(range(64)))
    assert xor_bytes(xor_bytes(data, stream), stream) == data


# ---------------------------------------------------------------- _LruMemo


def test_lru_memo_counts_hits_and_misses():
    memo = _LruMemo(4)
    assert memo.get("a") is None
    memo.put("a", 1)
    assert memo.get("a") == 1
    assert memo.stats() == {"hits": 1, "misses": 1, "size": 1, "maxsize": 4}


def test_lru_memo_evicts_least_recently_used():
    memo = _LruMemo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # refresh "a": "b" is now oldest
    memo.put("c", 3)
    assert memo.get("b") is None
    assert memo.get("a") == 1
    assert memo.get("c") == 3
    assert len(memo) == 2


def test_lru_memo_zero_size_disables_caching():
    memo = _LruMemo(0)
    memo.put("a", 1)
    assert memo.get("a") is None
    assert len(memo) == 0


# ------------------------------------------------- the pseudonym memo


def test_real_provider_pseudonym_memo_hits_on_repeats():
    provider = RealCryptoProvider()
    (user,) = ids("user-42")
    first = provider.pseudonymize(KEY, user)
    second = provider.pseudonymize(KEY, user)
    assert first == second
    stats = provider.cache_stats()
    assert stats["pseudonymize"]["hits"] == 1
    assert stats["pseudonymize"]["misses"] == 1


def test_real_provider_memo_results_identical_to_uncached(monkeypatch):
    cached = RealCryptoProvider()
    monkeypatch.setattr(provider_module, "PSEUDONYM_MEMO_ENTRIES", 0)
    uncached = RealCryptoProvider()
    for identifier in ids("user-1", "user-2", "user-1", "item-9" * 5):
        assert cached.pseudonymize(KEY, identifier) == uncached.pseudonymize(KEY, identifier)
        assert cached.pseudonymize(KEY, identifier) == prp.encipher(KEY, identifier)
    assert len(uncached._pseudonym_memo) == 0


def test_real_provider_pseudonymize_seeds_reverse_memo():
    provider = RealCryptoProvider()
    (user,) = ids("user-7")
    pseudonym = provider.pseudonymize(KEY, user)
    assert provider.depseudonymize(KEY, pseudonym) == user
    stats = provider.cache_stats()
    # The request path already populated the reverse direction.
    assert stats["depseudonymize"]["hits"] == 1
    assert stats["depseudonymize"]["misses"] == 0


def test_real_provider_depseudonymize_without_prior_encrypt():
    provider = RealCryptoProvider()
    (item,) = ids("cold-item")
    pseudonym = prp.encipher(KEY, item)
    assert provider.depseudonymize(KEY, pseudonym) == item
    assert provider.cache_stats()["depseudonymize"]["misses"] == 1


def test_real_provider_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(provider_module, "PSEUDONYM_MEMO_ENTRIES", 8)
    provider = RealCryptoProvider()
    users = ids(*(f"user-{i}" for i in range(50)))
    for user in users:
        provider.pseudonymize(KEY, user)
    assert provider.cache_stats()["pseudonymize"]["size"] <= 8
    # Evicted entries still produce correct (recomputed) pseudonyms.
    assert provider.pseudonymize(KEY, users[0]) == prp.encipher(KEY, users[0])


def test_real_provider_memo_distinguishes_keys():
    provider = RealCryptoProvider()
    other_key = bytes(range(1, 33))
    (user,) = ids("u")
    assert provider.pseudonymize(KEY, user) != provider.pseudonymize(other_key, user)


def test_sim_provider_has_the_same_memo():
    """Drills run the sim provider: the memo keeps cold permutations rare
    there too, and counts the same way."""
    provider = SimCryptoProvider()
    (user,) = ids("user-3")
    pseudonym = provider.pseudonymize(KEY, user)
    provider.pseudonymize(KEY, user)
    assert provider.depseudonymize(KEY, pseudonym) == user
    stats = provider.cache_stats()
    assert stats["pseudonymize"] == {"hits": 1, "misses": 1, "size": 1, "maxsize": 4096}
    assert stats["depseudonymize"]["hits"] == 1


# --------------------------------------------------------- batched helpers


@pytest.mark.parametrize("provider_cls", [RealCryptoProvider, SimCryptoProvider])
def test_pseudonymize_many_roundtrip(provider_cls):
    provider = provider_cls()
    identifiers = ids(*(f"user-{i}" for i in range(5)))
    pseudonyms = provider.pseudonymize_many(KEY, identifiers)
    assert pseudonyms == [provider.pseudonymize(KEY, i) for i in identifiers]
    assert provider.depseudonymize_many(KEY, pseudonyms) == identifiers


# ------------------------------------------------------------ metrics glue


def _cache_series(telemetry, name, operation="pseudonymize"):
    return telemetry.registry.get(name, {"operation": operation}).series


def test_crypto_cache_gauges_sample_hit_ratio():
    loop = EventLoop()
    telemetry = Telemetry(scrape_interval=1.0)
    provider = RealCryptoProvider()
    snapshots = []
    cache_stats = provider.cache_stats
    provider.cache_stats = lambda: snapshots.append(loop.now) or cache_stats()
    instrument_crypto(telemetry, provider)
    (user,) = ids("user-1")
    provider.pseudonymize(KEY, user)
    provider.pseudonymize(KEY, user)
    telemetry.bind(loop)
    loop.schedule_at(2.5, lambda: None)  # the scraper re-arms only while work is pending
    loop.run_until(2.5)
    assert _cache_series(telemetry, "pprox_crypto_cache_hits_total").last() == 1.0
    assert _cache_series(telemetry, "pprox_crypto_cache_misses_total").last() == 1.0
    assert _cache_series(telemetry, "pprox_crypto_cache_size").last() == 1.0
    # Six instruments, one cache_stats() snapshot per sample tick.
    assert snapshots == [1.0, 2.0]


def test_crypto_cache_gauges_skip_the_sim_provider():
    """Drill telemetry carries no memo series, though the sim provider
    keeps the same memo as the real one."""
    telemetry = Telemetry()
    instrument_crypto(telemetry, SimCryptoProvider())
    assert telemetry.registry.instruments() == []
