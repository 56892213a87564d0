"""SimContext / Deployment facade and the context-taking constructors."""

from __future__ import annotations

import warnings

import pytest

from repro.client import PProxClient
from repro.context import Deployment, SimContext
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry

CONFIG = PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2)


def _run_gets(loop, client, count=12):
    results = []
    for index in range(count):
        client.get(f"user-{index}", on_complete=results.append)
    loop.run()
    return [(r.ok, tuple(r.items), r.latency) for r in results]


def _loose_stack(seed):
    """build_pprox + PProxClient on a hand-assembled context."""
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(ctx, CONFIG, lrs_picker=lambda: stub)
    stub.items = make_pseudonymous_payload(
        provider, service.provisioner.layer_keys["IA"].symmetric_key
    )
    return loop, service, PProxClient(ctx, service)


def _context_stack(seed):
    ctx = SimContext.fresh(seed)
    ctx.provider = RealCryptoProvider(rng_bytes=ctx.rng.bytes_fn("crypto"))
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=CONFIG, lrs_picker=lambda: stub)
    stub.items = make_pseudonymous_payload(
        ctx.provider,
        deployment.service.provisioner.layer_keys["IA"].symmetric_key,
    )
    return ctx.loop, deployment.service, deployment.client()


def test_build_pprox_and_deployment_builds_are_equivalent():
    # Same seed, same config: the Deployment facade must produce the
    # exact run that build_pprox + PProxClient on a hand-assembled
    # context produce (RNG streams are name-keyed, so construction
    # order cannot skew them).
    loose = _run_gets(*_loose_stack(99)[::2])
    fresh = _run_gets(*_context_stack(99)[::2])
    assert loose == fresh


def test_same_seed_stacks_issue_identical_request_ids():
    """Every client draws ids from its context's counter, so two
    same-seed stacks built in one process issue the same id sequence —
    whatever ran before them."""
    sequences = []
    for build in (_loose_stack, _context_stack, _loose_stack):
        loop, _, client = build(7)
        results = []
        for index in range(6):
            client.get(f"user-{index}", on_complete=results.append)
        loop.run()
        sequences.append([result.request_id for result in results])
    assert sequences[0] == sequences[1] == sequences[2]
    assert sorted(sequences[0]) == [1, 2, 3, 4, 5, 6]


def test_client_shares_the_provider_the_service_was_built_with():
    """Every builder memoizes the provider onto the context (the sim
    provider's token registry is shared state), so a client built on the
    same context needs no ``Deployment`` to find it."""
    ctx = SimContext.fresh(6)
    assert ctx.provider is None
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    service = build_pprox(ctx, CONFIG, lrs_picker=lambda: stub)
    client = PProxClient(ctx, service)
    assert client.provider is service.runtime.provider is ctx.provider
    stub.items = make_pseudonymous_payload(
        ctx.provider, service.provisioner.layer_keys["IA"].symmetric_key
    )
    results = []
    client.get("alice", on_complete=results.append)
    ctx.loop.run()
    assert results and results[0].ok


def test_context_client_signature_emits_no_warning():
    ctx = SimContext.fresh(11)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=CONFIG, lrs_picker=lambda: stub)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        PProxClient(ctx, deployment.service)


def test_build_pprox_accepts_context_positionally():
    ctx = SimContext.fresh(12)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        service = build_pprox(ctx, CONFIG, lrs_picker=lambda: stub)
    assert len(service.ua_instances) == CONFIG.ua_instances


def test_conflicting_positional_and_keyword_args_raise():
    ctx = SimContext.fresh(13)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    with pytest.raises(TypeError):
        build_pprox(ctx, CONFIG, config=CONFIG, lrs_picker=lambda: stub)


def test_resolved_provider_is_memoized():
    ctx = SimContext.fresh(14)
    assert ctx.provider is None
    provider = ctx.resolved_provider()
    assert ctx.resolved_provider() is provider
    assert ctx.provider is provider


def test_with_provider_returns_copy():
    ctx = SimContext.fresh(15)
    provider = SimCryptoProvider()
    other = ctx.with_provider(provider)
    assert other is not ctx
    assert other.provider is provider
    assert ctx.provider is None
    assert other.loop is ctx.loop


def test_deployment_client_passes_options_through():
    ctx = SimContext.fresh(16)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=CONFIG, lrs_picker=lambda: stub)
    client = deployment.client(request_timeout=0.7, max_retries=3, hedge_delay=0.2)
    assert client.request_timeout == 0.7
    assert client.max_retries == 3
    assert client.hedge_delay == 0.2
    assert client.provider is ctx.provider


def test_deployment_health_monitor_binds_service():
    ctx = SimContext.fresh(17)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=CONFIG, lrs_picker=lambda: stub)
    monitor = deployment.health_monitor(interval=0.5)
    assert monitor.service is deployment.service
    assert monitor.interval == 0.5
