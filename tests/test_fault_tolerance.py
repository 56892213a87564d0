"""Failure injection: dead instances, health ejection, client retries."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.cluster.health import HealthMonitor
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def _stack(config=None, seed=101, **client_kwargs):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_pprox(
        ctx, config or PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2),
        lrs_picker=lambda: stub,
    )
    if service.config.encryption:
        stub.items = make_pseudonymous_payload(
            provider, service.provisioner.layer_keys["IA"].symmetric_key
        )
    client = PProxClient(ctx, service, rng=rng.stream("c"), **client_kwargs)
    return loop, service, client


def test_dead_instance_drops_requests_silently():
    loop, service, client = _stack()
    service.ua_instances[0].fail()
    service.ua_instances[1].fail()
    done = []
    client.get("u", on_complete=done.append)
    loop.run()
    assert done == []  # lost, no reply ever comes


def test_timeout_reports_failure():
    loop, service, client = _stack()
    client.request_timeout = 1.0
    for instance in service.ua_instances:
        instance.fail()
    done = []
    client.get("u", on_complete=done.append)
    loop.run()
    assert len(done) == 1
    assert not done[0].ok
    assert client.timeouts == 1


def test_retry_through_surviving_instance():
    """One dead UA instance: retries eventually land on the healthy
    one and the call completes."""
    loop, service, client = _stack(
        PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2,
                    balancing="round-robin")
    )
    client.request_timeout = 1.0
    client.max_retries = 3
    service.ua_instances[0].fail()
    done = []
    for index in range(4):
        client.get(f"user-{index}", on_complete=done.append)
    loop.run()
    assert len(done) == 4
    assert all(call.ok for call in done)
    assert client.retries_performed >= 1


def test_health_monitor_ejects_dead_instances():
    loop, service, client = _stack()
    monitor = HealthMonitor(loop=loop, service=service, interval=1.0)
    monitor.start()
    service.ua_instances[0].fail()
    service.ia_instances[1].fail()
    loop.run_until(3.0)
    monitor.stop()
    assert len(service.ua_balancer) == 1
    assert len(service.ia_balancer) == 1
    assert set(monitor.ejected) == {"pprox-ua-0", "pprox-ia-1"}


def test_traffic_flows_after_ejection_without_retries():
    """Once the balancer is pruned, new calls never touch the dead
    instance — no timeouts needed."""
    loop, service, client = _stack()
    monitor = HealthMonitor(loop=loop, service=service, interval=0.5)
    monitor.start()
    service.ua_instances[0].fail()
    loop.run_until(1.0)
    done = []
    for index in range(6):
        client.get(f"user-{index}", on_complete=done.append)
    loop.run_until(30.0)
    monitor.stop()
    loop.run()
    assert len(done) == 6
    assert all(call.ok for call in done)
    assert client.timeouts == 0


def test_dead_ia_instance_loses_in_flight_responses():
    loop, service, client = _stack(
        PProxConfig(shuffle_size=0, ua_instances=1, ia_instances=1)
    )
    client.request_timeout = 2.0
    done = []
    client.get("u", on_complete=done.append)
    # Kill the IA while the request is in flight.
    loop.run_until(0.001)
    service.ia_instances[0].fail()
    loop.run()
    assert len(done) == 1
    assert not done[0].ok


def test_retries_preserve_latency_accounting():
    loop, service, client = _stack(
        PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2,
                    balancing="round-robin")
    )
    client.request_timeout = 0.5
    client.max_retries = 2
    service.ua_instances[0].fail()
    done = []
    client.get("user-0", on_complete=done.append)  # round-robin hits dead first
    loop.run()
    assert done[0].latency >= 0.5  # includes the timed-out attempt
