"""Shuffle buffer: batch flush, timer flush, randomized order."""

from __future__ import annotations

import random

import pytest

from repro.proxy.shuffler import ShuffleBuffer
from repro.simnet.clock import EventLoop


def _buffer(size=5, timeout=1.0, seed=1):
    loop = EventLoop()
    released = []
    buffer = ShuffleBuffer(
        loop=loop,
        rng=random.Random(seed),
        size=size,
        timeout=timeout,
        release=released.append,
    )
    return loop, buffer, released


def test_holds_until_batch_full():
    loop, buffer, released = _buffer(size=3)
    buffer.add("a")
    buffer.add("b")
    assert released == []
    buffer.add("c")
    assert sorted(released) == ["a", "b", "c"]


def test_flush_releases_all_entries_exactly_once():
    loop, buffer, released = _buffer(size=4)
    for item in "abcd":
        buffer.add(item)
    assert sorted(released) == ["a", "b", "c", "d"]
    assert buffer.pending == 0


def test_order_is_randomized():
    """Across many batches, at least one must be released out of
    arrival order (probability of failure ~ (1/S!)^trials)."""
    permutations = set()
    for seed in range(20):
        _, buffer, released = _buffer(size=5, seed=seed)
        for item in range(5):
            buffer.add(item)
        permutations.add(tuple(released))
    assert len(permutations) > 1
    assert any(p != (0, 1, 2, 3, 4) for p in permutations)


def test_timer_flushes_partial_batch():
    loop, buffer, released = _buffer(size=10, timeout=0.5)
    buffer.add("only")
    loop.run_until(0.4)
    assert released == []
    loop.run_until(0.6)
    assert released == ["only"]
    assert buffer.timer_flushes == 1


def test_timer_resets_after_size_flush():
    loop, buffer, released = _buffer(size=2, timeout=0.5)
    buffer.add("a")
    buffer.add("b")  # size flush; timer cancelled
    loop.run_until(1.0)
    assert buffer.timer_flushes == 0
    buffer.add("c")
    loop.run()
    assert "c" in released
    assert buffer.timer_flushes == 1


def test_counters():
    loop, buffer, released = _buffer(size=2)
    for item in "abcd":
        buffer.add(item)
    assert buffer.flushes == 2
    assert buffer.entries_buffered == 4


def test_size_one_is_passthrough():
    loop, buffer, released = _buffer(size=1)
    buffer.add("x")
    assert released == ["x"]


def test_invalid_parameters_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError, match="size"):
        ShuffleBuffer(loop=loop, rng=random.Random(), size=0, timeout=1.0, release=print)
    with pytest.raises(ValueError, match="timeout"):
        ShuffleBuffer(loop=loop, rng=random.Random(), size=2, timeout=0.0, release=print)


def test_drain_discards_batch_and_cancels_timer():
    """An instance crash drains the buffer: nothing is released, the
    armed timeout never fires, and the drain is counted."""
    loop, buffer, released = _buffer(size=5, timeout=1.0)
    buffer.add("a")
    buffer.add("b")
    assert buffer.drain() == 2
    assert released == []
    assert buffer.pending == 0
    assert buffer.drains == 1
    assert buffer.entries_drained == 2
    assert buffer.last_flush_size == 0
    loop.run()  # the cancelled timer must not flush ghosts
    assert released == []


def test_buffer_usable_again_after_drain():
    loop, buffer, released = _buffer(size=2)
    buffer.add("a")
    buffer.drain()
    buffer.add("x")
    buffer.add("y")
    assert sorted(released) == ["x", "y"]


def test_every_permutation_is_reachable():
    """With enough batches, all 3! = 6 permutations of a 3-batch occur
    — the uniformity the 1/S anonymity argument needs."""
    seen = set()
    for seed in range(200):
        _, buffer, released = _buffer(size=3, seed=seed)
        for item in range(3):
            buffer.add(item)
        seen.add(tuple(released))
    assert len(seen) == 6


def test_chain_on_flush_runs_hooks_in_installation_order():
    loop, buffer, _ = _buffer(size=2)
    calls = []
    buffer.chain_on_flush(lambda size, timer_fired: calls.append(("first", size, timer_fired)))
    buffer.chain_on_flush(lambda size, timer_fired: calls.append(("second", size, timer_fired)))
    buffer.add("a")
    buffer.add("b")
    assert calls == [("first", 2, False), ("second", 2, False)]
    # on_flush stays one late-bound attribute: replacing it wholesale
    # drops the chain, and chaining onto the replacement works again.
    buffer.on_flush = lambda size, timer_fired: calls.append(("replaced", size))
    buffer.chain_on_flush(lambda size, timer_fired: calls.append(("third", size)))
    del calls[:]
    buffer.add("c")
    loop.run()
    assert calls == [("replaced", 1), ("third", 1)]


def test_hooks_installed_before_and_after_instrument_service_both_fire():
    """instrument_service used to *overwrite* on_flush, silently losing
    any hook installed before it."""
    from repro.context import Deployment, SimContext
    from repro.lrs.stub import StubLrs
    from repro.proxy import PProxConfig
    from repro.telemetry import Telemetry
    from repro.telemetry.instruments import instrument_service

    telemetry = Telemetry()
    ctx = SimContext.fresh(3, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label="chain-test")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(encryption=False, sgx=False, shuffle_size=2),
        lrs_picker=lambda: stub,
    )
    buffer = deployment.service.ua_instances[0].request_buffer
    order = []

    def flushes_observed():
        return telemetry.registry.get("pprox_shuffle_flush_size").count

    buffer.chain_on_flush(lambda size, fired: order.append(("before", flushes_observed())))
    instrument_service(telemetry, deployment.service)
    buffer.chain_on_flush(lambda size, fired: order.append(("after", flushes_observed())))
    client = deployment.client()
    client.get("alice")
    client.get("bob")
    ctx.loop.run()
    # One UA flush.  The hook installed before the instrumentation ran
    # before its histogram observed that flush, the one installed after
    # it ran after: installation order.
    assert order == [("before", 0), ("after", 1)]
