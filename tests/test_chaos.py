"""Chaos experiment: instance failure under live load.

Runs a full-feature deployment at steady load, kills a proxy instance
mid-run, and verifies the recovery story end-to-end: the health
monitor ejects the dead backend, client retries recover lost calls,
the autoscaler replaces capacity, and availability returns to 100 %.
"""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.cluster.autoscaler import ElasticScaler
from repro.cluster.health import HealthMonitor
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.workload.injector import Injector


@pytest.fixture
def chaos_stack():
    rng = RngRegistry(seed=131)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    # The context's default SimCryptoProvider: these tests assert
    # ejection, retry and autoscaling, not cryptography (real crypto
    # under failure is tests/test_fault_tolerance.py's job).
    ctx = SimContext(loop=loop, network=network, rng=rng)
    provider = ctx.resolved_provider()  # memoized: service and client share it
    service = build_pprox(
        ctx,
        PProxConfig(shuffle_size=5, shuffle_timeout=0.2, ua_instances=2,
                    ia_instances=2),
        lrs_picker=lambda: stub,
    )
    stub.items = make_pseudonymous_payload(
        provider, service.provisioner.layer_keys["IA"].symmetric_key
    )
    client = PProxClient(ctx, service, request_timeout=2.0, max_retries=3)
    return rng, loop, service, client


def test_full_recovery_story(chaos_stack):
    rng, loop, service, client = chaos_stack
    monitor = HealthMonitor(loop=loop, service=service, interval=1.0)
    monitor.start()

    injector = Injector(loop, rng.stream("injector"))
    injector.inject(100, 30.0, lambda cb: client.get("user", on_complete=cb))

    # Kill one instance of each layer 10 s in.
    loop.schedule(10.0, service.ua_instances[0].fail)
    loop.schedule(10.0, service.ia_instances[1].fail)

    loop.run_until(40.0)
    monitor.stop()
    loop.run()

    # Every injected call eventually succeeded (retries absorbed the
    # in-flight losses).
    assert injector.report.issued == 3000
    assert injector.report.completed == 3000
    assert injector.report.failed == 0
    # The dead backends were ejected.
    assert len(service.ua_balancer) == 1
    assert len(service.ia_balancer) == 1
    # Some calls did need the retry path.
    assert client.retries_performed > 0


def test_latency_degrades_then_recovers(chaos_stack):
    rng, loop, service, client = chaos_stack
    monitor = HealthMonitor(loop=loop, service=service, interval=0.5)
    monitor.start()

    injector = Injector(loop, rng.stream("injector"))
    injector.inject(100, 30.0, lambda cb: client.get("user", on_complete=cb))
    loop.schedule(10.0, service.ua_instances[0].fail)

    loop.run_until(40.0)
    monitor.stop()
    loop.run()

    before = injector.recorder.trimmed(2.0, 9.5)
    during = injector.recorder.trimmed(10.0, 13.0)
    after = injector.recorder.trimmed(20.0, 29.0)
    assert before and during and after

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    # The failure window shows the timeout/retry penalty; steady state
    # afterwards returns to the healthy baseline's neighbourhood.
    assert max(during) > 2.0  # at least one retried call (>= timeout)
    assert median(after) < 2 * median(before)


def test_autoscaler_replaces_lost_capacity(chaos_stack):
    """After an instance dies under load, the elastic scaler detects
    the per-instance rate spike on the survivors and scales back up —
    and the new instance goes through attestation + provisioning."""
    rng, loop, service, client = chaos_stack
    monitor = HealthMonitor(loop=loop, service=service, interval=0.5)
    scaler = ElasticScaler(loop=loop, service=service, interval=2.0,
                           low_rps=20.0, high_rps=150.0, max_instances=3)
    monitor.start()
    scaler.start()

    injector = Injector(loop, rng.stream("injector"))
    injector.inject(250, 40.0, lambda cb: client.get("user", on_complete=cb))
    loop.schedule(10.0, service.ua_instances[0].fail)

    loop.run_until(45.0)
    monitor.stop()
    scaler.stop()
    loop.run()

    assert any(d.action == "scale-up" and d.layer == "UA" for d in scaler.decisions)
    newest = service.ua_instances[-1]
    assert newest.alive
    assert newest.enclave.attested and newest.enclave.provisioned
    assert injector.report.completion_ratio > 0.99
