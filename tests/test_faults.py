"""Fault-injection subsystem: plans, wire faults, brownouts, supervision."""

from __future__ import annotations

import math
import random

import pytest

from repro.context import Deployment, SimContext
from repro.experiments.capacity import capacity_chaos_spec
from repro.faults import (
    BrownoutLrs,
    ChaosSpec,
    FaultEvent,
    FaultPlan,
    FaultSupervisor,
    NetworkFaultController,
)
from repro.lrs.stub import StubLrs
from repro.overload import RETRYABLE_STATUS
from repro.proxy import PProxConfig
from repro.rest.messages import make_get
from repro.simnet.rng import RngRegistry
from repro.telemetry import Telemetry

NOSHUF = PProxConfig(
    shuffle_size=0, ua_instances=2, ia_instances=2, balancing="round-robin"
)


def _deployment(seed=31, config=NOSHUF, telemetry=None):
    ctx = SimContext.fresh(seed, telemetry=telemetry)
    if telemetry is not None:
        telemetry.bind(ctx.loop, run_label="faults-test")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx, config=PProxConfig(
            encryption=False, sgx=False, shuffle_size=config.shuffle_size,
            ua_instances=config.ua_instances, ia_instances=config.ia_instances,
            balancing=config.balancing,
        ), lrs_picker=lambda: stub,
    )
    return ctx, stub, deployment


# -- plans --------------------------------------------------------------


def test_plan_orders_events_by_time():
    plan = FaultPlan.from_events([
        FaultEvent(at=5.0, kind="crash", target="b"),
        FaultEvent(at=1.0, kind="drop", magnitude=0.1, duration=1.0),
        FaultEvent(at=3.0, kind="crash", target="a"),
    ])
    assert [event.at for event in plan] == [1.0, 3.0, 5.0]
    assert len(plan) == 3


def test_plan_rejects_unknown_kind_and_negative_time():
    with pytest.raises(ValueError):
        FaultEvent(at=1.0, kind="meteor")
    with pytest.raises(ValueError):
        FaultEvent(at=-1.0, kind="crash")


@pytest.mark.parametrize(
    "entry",
    [
        dict(at=1.0, kind="partition", target="ua", duration=0.5),
        dict(at=1.0, kind="partition", target="|ia", duration=0.5),
        dict(at=1.0, kind="delay", duration=-0.2, magnitude=0.01),
        dict(at=1.0, kind="drop", duration=0.5, magnitude=1.7),
        dict(at=1.0, kind="brownout", target="lrs", duration=0.5, magnitude=-0.1),
        dict(at=1.0, kind="delay", duration=0.5, magnitude=-0.01),
        dict(at=1.0, kind="delay", duration=0.5, magnitude=math.inf),
        dict(at=math.inf, kind="crash", target="x"),
        dict(at=math.nan, kind="crash", target="x"),
        dict(at=1.0, kind="crash", target="x", duration=math.nan),
        dict(at=1.0, kind="crash", target="x", duration=math.inf),
        dict(at=1.0, kind="rotate", target="XA"),
        dict(at=1.0, kind="split", target=""),
        dict(at=1.0, kind="merge", target="s1|"),
    ],
)
def test_malformed_plan_entry_is_refused_when_built(entry):
    """An entry that would abort ``loop.run()`` or misfire silently
    mid-drill is a ``ValueError`` where the plan is written."""
    with pytest.raises(ValueError):
        FaultEvent(**entry)


def test_arm_counts_plan_times_from_now():
    """Plan times are relative: an entry armed at 2.5 fires, and is
    stamped, at 2.5 + at."""
    telemetry = Telemetry()
    ctx, _, deployment = _deployment(telemetry=telemetry)
    victim = deployment.service.ua_instances[0]
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=deployment.service,
        netfaults=NetworkFaultController(network=ctx.network, rng=ctx.rng.stream("netfaults")),
        telemetry=telemetry,
    )
    ctx.loop.run_until(2.5)
    supervisor.arm(FaultPlan.from_events([FaultEvent(at=1.0, kind="crash", target=victim.name)]))
    ctx.loop.run()
    (crashed,) = [
        e for e in telemetry.event_log.of_kind("fault") if e.payload["event"] == "instance_crashed"
    ]
    assert crashed.time == crashed.payload["at"] == 3.5


def test_chaos_spec_sampling_is_seed_deterministic():
    spec = ChaosSpec(horizon=10.0)
    names = (["pprox-ua-0", "pprox-ua-1"], ["pprox-ia-0"])
    plan_a = spec.sample(RngRegistry(seed=42), *names)
    plan_b = spec.sample(RngRegistry(seed=42), *names)
    plan_c = spec.sample(RngRegistry(seed=43), *names)
    assert plan_a == plan_b
    assert plan_a != plan_c
    kinds = {event.kind for event in plan_a}
    assert kinds == {"crash", "partition", "drop", "delay", "brownout"}
    assert all(0.15 * 10 <= event.at <= 0.7 * 10 for event in plan_a)


def _entries(plan):
    return [(e.at, e.kind, e.target, e.duration, e.magnitude) for e in plan]


def test_chaos_spec_sample_is_pinned():
    """The exact plan one seed draws: a constant that moved a draw, a
    magnitude or the draw order would change these tuples."""
    plan = ChaosSpec(horizon=10.0).sample(
        RngRegistry(seed=42), ["pprox-ua-0", "pprox-ua-1"], ["pprox-ia-0"]
    )
    assert _entries(plan) == [
        (1.6029016324852863, "delay", "", 0.75, 0.02),
        (2.0503205174027483, "crash", "pprox-ua-1", 1.0, 0.0),
        (2.3401702593308746, "brownout", "lrs", 1.0, 0.5),
        (3.2751420782636984, "crash", "pprox-ia-0", 1.0, 0.0),
        (4.680458227340224, "drop", "", 0.75, 0.05),
        (6.840315263724611, "partition", "ua|ia", 0.75, 0.0),
    ]


def test_capacity_chaos_spec_sample_is_pinned():
    plan = capacity_chaos_spec(8.0).sample(
        RngRegistry(seed=7), ["pprox-ua-0", "pprox-ua-1"], ["pprox-ia-0", "pprox-ia-1"]
    )
    assert _entries(plan) == [
        (2.102548482215552, "delay", "", 0.75, 0.02),
        (2.2770568411399306, "brownout", "lrs", 1.0, 0.5),
        (2.298713143187755, "drop", "", 0.75, 0.05),
        (4.690381643509253, "crash", "pprox-ua-0", 0.8, 0.0),
        (4.9119840524252085, "partition", "ua|ia", 0.75, 0.0),
        (5.44128858360436, "crash", "pprox-ua-1", 0.8, 0.0),
    ]


# -- wire faults --------------------------------------------------------


def _controller(ctx):
    controller = NetworkFaultController(
        network=ctx.network, rng=ctx.rng.stream("netfaults")
    )
    controller.install()
    return controller


def _send_one(ctx, source="client-0", destination="pprox-ua-0"):
    delivered = []
    ctx.network.send(source, destination, "payload", 100, delivered.append)
    ctx.loop.run()
    return delivered


def test_partition_drops_both_directions_until_healed():
    ctx = SimContext.fresh(1)
    ctx.network.register_role("client-0", "client")
    ctx.network.register_role("pprox-ua-0", "ua")
    controller = _controller(ctx)
    controller.begin_partition("client", "ua")
    assert _send_one(ctx) == []
    assert _send_one(ctx, source="pprox-ua-0", destination="client-0") == []
    assert controller.partition_drops == 2
    controller.end_partition("client", "ua")
    assert controller.quiescent
    assert _send_one(ctx) == ["payload"]


def test_partition_leaves_other_role_pairs_alone():
    ctx = SimContext.fresh(2)
    ctx.network.register_role("pprox-ua-0", "ua")
    ctx.network.register_role("pprox-ia-0", "ia")
    ctx.network.register_role("lrs-stub", "lrs")
    controller = _controller(ctx)
    controller.begin_partition("ua", "ia")
    assert _send_one(ctx, source="pprox-ia-0", destination="lrs-stub") == ["payload"]
    assert controller.partition_drops == 0


def test_drop_window_loses_messages_probabilistically():
    ctx = SimContext.fresh(3)
    controller = _controller(ctx)
    controller.begin_drop(1.0)
    assert _send_one(ctx) == []
    controller.end_drop(1.0)
    assert _send_one(ctx) == ["payload"]
    assert controller.random_drops == 1
    assert ctx.network.messages_dropped == 1


def test_overlapping_drop_windows_use_max_probability():
    ctx = SimContext.fresh(4)
    controller = _controller(ctx)
    controller.begin_drop(0.0)
    controller.begin_drop(1.0)
    assert _send_one(ctx) == []
    controller.end_drop(1.0)
    assert _send_one(ctx) == ["payload"]


def test_delay_window_stretches_delivery():
    ctx = SimContext.fresh(5)
    controller = _controller(ctx)
    baseline_arrival = []
    ctx.network.send("a", "b", "x", 10, lambda _: baseline_arrival.append(ctx.loop.now))
    ctx.loop.run()
    controller.begin_delay(0.5)
    slow_arrival = []
    sent_at = ctx.loop.now
    ctx.network.send("a", "b", "x", 10, lambda _: slow_arrival.append(ctx.loop.now))
    ctx.loop.run()
    assert slow_arrival[0] - sent_at >= 0.5
    assert controller.delays_injected == 1


def test_double_install_raises_unless_same_controller():
    ctx = SimContext.fresh(6)
    controller = _controller(ctx)
    controller.install()  # idempotent for the same controller
    other = NetworkFaultController(network=ctx.network, rng=random.Random(0))
    with pytest.raises(RuntimeError):
        other.install()
    controller.uninstall()
    other.install()


def test_invalid_window_parameters_rejected():
    ctx = SimContext.fresh(7)
    controller = _controller(ctx)
    with pytest.raises(ValueError):
        controller.begin_drop(1.5)
    with pytest.raises(ValueError):
        controller.begin_delay(-0.1)


# -- brownouts ----------------------------------------------------------


def test_brownout_rejects_with_retryable_errors():
    ctx = SimContext.fresh(8)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    brown = BrownoutLrs(inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"))
    brown.begin(error_rate=1.0)
    replies = []
    brown.handle(make_get("u", "k"), replies.append)
    ctx.loop.run()
    assert replies[0].status == RETRYABLE_STATUS
    assert replies[0].fields == {"retryable": True, "error": "BrownoutError"}
    assert brown.rejected == 1
    assert stub.requests_served == 0


def test_brownout_slows_served_requests():
    ctx = SimContext.fresh(9)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    brown = BrownoutLrs(
        inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"), extra_delay=0.2
    )
    brown.begin(error_rate=0.0)
    done = []
    brown.handle(make_get("u", "k"), lambda r: done.append(ctx.loop.now))
    ctx.loop.run()
    assert done[0] >= 0.2
    assert brown.slowed == 1
    assert stub.requests_served == 1


def test_brownout_passthrough_when_inactive():
    ctx = SimContext.fresh(10)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    brown = BrownoutLrs(inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"))
    replies = []
    brown.handle(make_get("u", "k"), replies.append)
    ctx.loop.run()
    assert replies[0].ok
    assert brown.rejected == 0 and brown.slowed == 0
    # Attribute delegation: the wrapper drops into any lrs_picker.
    assert brown.address == stub.address
    assert brown.requests_served == 1


def test_brownout_end_without_begin_raises():
    ctx = SimContext.fresh(11)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    brown = BrownoutLrs(inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"))
    with pytest.raises(RuntimeError):
        brown.end()


# -- supervised crash + recovery ---------------------------------------


def test_crash_event_kills_then_restarts_with_fresh_generation():
    telemetry = Telemetry()
    ctx, _, deployment = _deployment(telemetry=telemetry)
    service = deployment.service
    victim = service.ua_instances[0]
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=service,
        netfaults=NetworkFaultController(
            network=ctx.network, rng=ctx.rng.stream("netfaults")
        ),
        telemetry=telemetry,
    )
    supervisor.arm(FaultPlan.from_events([
        FaultEvent(at=1.0, kind="crash", target=victim.name, duration=0.5)
    ]))
    ctx.loop.run_until(1.1)
    assert not victim.alive
    ctx.loop.run()
    assert victim.alive
    assert victim.generation == 1
    assert victim.enclave.attested
    assert victim.enclave.name.endswith("-g1")
    assert supervisor.crashes_injected == 1
    assert supervisor.restarts_completed == 1
    events = [e.payload["event"] for e in telemetry.event_log.of_kind("fault")]
    assert "instance_crashed" in events
    assert "instance_restarted" in events


def test_crash_of_dead_instance_is_skipped():
    ctx, _, deployment = _deployment()
    service = deployment.service
    victim = service.ia_instances[0]
    victim.fail()
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=service,
        netfaults=NetworkFaultController(
            network=ctx.network, rng=ctx.rng.stream("netfaults")
        ),
    )
    supervisor.arm(FaultPlan.from_events([
        FaultEvent(at=0.5, kind="crash", target=victim.name, duration=0.1)
    ]))
    ctx.loop.run()
    assert supervisor.crashes_injected == 0
    assert supervisor.skipped == 1
    assert not victim.alive  # nobody restarted it either


def test_health_monitor_ejects_then_readmits_after_restart():
    telemetry = Telemetry()
    ctx, _, deployment = _deployment(seed=32, telemetry=telemetry)
    service = deployment.service
    victim = service.ua_instances[1]
    monitor = deployment.health_monitor(interval=0.2)
    monitor.start()
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=service,
        netfaults=NetworkFaultController(
            network=ctx.network, rng=ctx.rng.stream("netfaults")
        ),
        telemetry=telemetry,
    )
    supervisor.arm(FaultPlan.from_events([
        FaultEvent(at=1.0, kind="crash", target=victim.name, duration=1.0)
    ]))
    ctx.loop.run_until(1.5)
    assert not service.ua_balancer.contains(victim)
    assert monitor.failovers == 1
    ctx.loop.run_until(3.0)
    monitor.stop()
    ctx.loop.run()
    assert service.ua_balancer.contains(victim)
    assert monitor.readmitted == [victim.name]
    # Readmission only happens after attestation + provisioning.
    readmit = next(
        e.payload for e in telemetry.event_log.of_kind("fault")
        if e.payload["event"] == "instance_readmitted"
    )
    assert readmit["attested"] is True
    assert readmit["generation"] == 1
    assert readmit["recovery_seconds"] > 0
    # Recovery histogram observed the eject->readmit span.
    histogram = telemetry.registry.get("pprox_recovery_seconds")
    assert histogram is not None and histogram.count == 1


def test_window_events_are_emitted_in_pairs():
    telemetry = Telemetry()
    ctx, stub, deployment = _deployment(seed=33, telemetry=telemetry)
    brown = BrownoutLrs(inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"))
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=deployment.service,
        netfaults=NetworkFaultController(
            network=ctx.network, rng=ctx.rng.stream("netfaults")
        ),
        lrs=brown,
        telemetry=telemetry,
    )
    supervisor.arm(FaultPlan.from_events([
        FaultEvent(at=0.5, kind="drop", duration=0.5, magnitude=0.5),
        FaultEvent(at=0.6, kind="delay", duration=0.5, magnitude=0.01),
        FaultEvent(at=0.7, kind="partition", target="ua|ia", duration=0.5),
        FaultEvent(at=0.8, kind="brownout", target="lrs", duration=0.5, magnitude=0.5),
    ]))
    ctx.loop.run()
    events = [e.payload["event"] for e in telemetry.event_log.of_kind("fault")]
    assert events.count("fault_window_open") == 4
    assert events.count("fault_window_closed") == 4
    assert supervisor.windows_opened == 4
    assert supervisor.netfaults.quiescent
    assert brown.active == 0


def test_brownout_event_without_wrapper_is_skipped():
    ctx, _, deployment = _deployment(seed=34)
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=deployment.service,
        netfaults=NetworkFaultController(
            network=ctx.network, rng=ctx.rng.stream("netfaults")
        ),
    )
    supervisor.arm(FaultPlan.from_events([
        FaultEvent(at=0.5, kind="brownout", target="lrs", duration=1.0, magnitude=0.5)
    ]))
    ctx.loop.run()
    assert supervisor.skipped == 1
