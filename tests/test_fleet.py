"""Sharded fleet units: ring, directory, placement, service, supervisor."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.context import SimContext
from repro.fleet import (
    ROUTABLE_STATES,
    SHARD_STATES,
    FleetSupervisor,
    HashRing,
    Shard,
    ShardDirectory,
    build_fleet,
    domain_kill_plan,
    domain_node,
    placement_violations,
    ring_point,
)
from repro.lrs.stub import StubLrs
from repro.proxy import PProxConfig
from repro.simnet.loadbalancer import LoadBalancer, NoUpstream, RoundRobinPolicy


# -- ring ------------------------------------------------------------------


def test_ring_point_is_deterministic_64_bit():
    assert ring_point("n42") == ring_point("n42")
    assert ring_point("n42") != ring_point("n43")
    assert 0 <= ring_point("s0#0") < 2**64


def test_hash_ring_membership_and_errors():
    ring = HashRing(vnodes=8)
    ring.add("s0")
    ring.add("s1")
    assert len(ring) == 2
    assert "s0" in ring and "s1" in ring
    assert ring.members() == ["s0", "s1"]
    with pytest.raises(ValueError, match="already on the ring"):
        ring.add("s0")
    ring.remove("s0")
    assert "s0" not in ring
    with pytest.raises(ValueError, match="not on the ring"):
        ring.remove("s0")


def test_hash_ring_rejects_zero_vnodes():
    with pytest.raises(ValueError, match="vnodes"):
        HashRing(vnodes=0)


def test_empty_ring_raises_typed_no_upstream():
    with pytest.raises(NoUpstream, match="ring is empty"):
        HashRing().route(1)


def test_route_is_stable_and_spreads_across_shards():
    ring = HashRing(vnodes=64)
    for sid in ("s0", "s1", "s2"):
        ring.add(sid)
    owners = {ring.route(nonce) for nonce in range(1, 400)}
    assert owners == {"s0", "s1", "s2"}
    # Same membership, fresh ring: identical placement (blake2b, not
    # the per-process-salted builtin hash).
    twin = HashRing(vnodes=64)
    for sid in ("s0", "s1", "s2"):
        twin.add(sid)
    assert [ring.route(n) for n in range(1, 100)] == [
        twin.route(n) for n in range(1, 100)
    ]


def test_successors_start_at_owner_and_cover_each_shard_once():
    ring = HashRing(vnodes=32)
    for sid in ("s0", "s1", "s2"):
        ring.add(sid)
    for nonce in (1, 7, 99):
        order = list(ring.successors(nonce))
        assert order[0] == ring.route(nonce)
        assert sorted(order) == ["s0", "s1", "s2"]


# -- directory -------------------------------------------------------------


@dataclass
class FakeInstance:
    name: str
    alive: bool = True
    pending: int = 0


def _bare_shard(shard_id: str, domain: str = "", with_backend: bool = True) -> Shard:
    shard = Shard(
        shard_id=shard_id,
        domain=domain or f"fd-{shard_id}",
        ua_balancer=LoadBalancer(name=f"ua[{shard_id}]", policy=RoundRobinPolicy()),
        ia_balancer=LoadBalancer(name=f"ia[{shard_id}]", policy=RoundRobinPolicy()),
    )
    if with_backend:
        shard.ua_balancer.add(FakeInstance(f"ua-{shard_id}-0"))
    shard.set_state("live")
    return shard


def test_shard_states_and_routability():
    assert ROUTABLE_STATES <= set(SHARD_STATES)
    shard = _bare_shard("s0")
    assert shard.routable
    shard.set_state("retired")
    assert not shard.routable
    with pytest.raises(ValueError, match="unknown shard state"):
        shard.set_state("zombie")
    empty = _bare_shard("s1", with_backend=False)
    assert empty.state == "live" and not empty.routable  # no live UA


def test_directory_register_duplicate_rejected():
    directory = ShardDirectory(vnodes=8)
    directory.register(_bare_shard("s0"))
    with pytest.raises(ValueError, match="already registered"):
        directory.register(_bare_shard("s0"))
    with pytest.raises(ValueError, match="unknown shard"):
        directory.activate("s9")


def test_directory_refuses_non_int_routing_keys():
    """The privacy invariant at the type level: only the request nonce
    routes.  A string user id — or a bool, which is an int subclass —
    is refused loudly and recorded for the audit."""
    directory = ShardDirectory(vnodes=8)
    directory.register(_bare_shard("s0"))
    directory.activate("s0")
    for bad in ("alice", True, 3.5, None):
        with pytest.raises(TypeError, match="int request nonce"):
            directory.route(bad)
    assert directory.rejected_keys == ["'alice'", "True", "3.5", "None"]
    assert directory.routed == 0


def test_directory_key_log_is_bounded():
    directory = ShardDirectory(vnodes=8)
    directory.KEY_LOG_LIMIT = 16
    directory.register(_bare_shard("s0"))
    directory.activate("s0")
    for nonce in range(1, 50):
        directory.route(nonce)
    assert len(directory.key_log) == 16
    assert directory.routed == 49


def test_directory_fails_over_to_ring_sibling():
    directory = ShardDirectory(vnodes=32)
    for sid in ("s0", "s1"):
        directory.register(_bare_shard(sid))
        directory.activate(sid)
    owned_by_s0 = next(
        n for n in range(1, 500) if directory.ring.route(n) == "s0"
    )
    assert directory.route(owned_by_s0).shard_id == "s0"
    assert directory.failovers == 0
    directory.shards["s0"].set_state("retired")  # whole domain down
    assert directory.route(owned_by_s0).shard_id == "s1"
    assert directory.failovers == 1


def test_directory_no_routable_shard_raises():
    directory = ShardDirectory(vnodes=8)
    directory.register(_bare_shard("s0", with_backend=False))
    directory.activate("s0")
    with pytest.raises(NoUpstream, match="no routable shard"):
        directory.route(1)


def test_directory_forget_clears_ring_and_table():
    directory = ShardDirectory(vnodes=8)
    directory.register(_bare_shard("s0"))
    directory.activate("s0")
    directory.forget("s0")
    assert "s0" not in directory.ring
    assert directory.shards == {}


# -- built fleet -----------------------------------------------------------


def _fleet(shards=2, config=None, seed=29):
    ctx = SimContext.fresh(seed)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    fleet = build_fleet(
        ctx,
        config or PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2),
        lambda: stub,
        shards=shards,
    )
    return ctx, fleet


def test_build_fleet_shape_and_placement():
    ctx, fleet = _fleet(shards=2)
    assert set(fleet.directory.shards) == {"s0", "s1"}
    assert fleet.directory.ring.members() == ["s0", "s1"]
    for shard in fleet.shards.values():
        assert shard.state == "live"
        assert len(shard.ua_instances) == len(shard.ia_instances) == 2
        assert shard.domain == f"fd-{shard.shard_id}"
    # Every instance also joined the inherited global pools (fault
    # supervisor / telemetry instruments keep working unchanged).
    assert len(fleet.ua_instances) == len(fleet.ia_instances) == 4
    assert len(fleet.ua_balancer) == len(fleet.ia_balancer) == 4
    assert fleet.ua_instances[0].name == "pprox-ua-s0-0"
    assert placement_violations(fleet) == []


def test_build_fleet_validates_arguments():
    ctx = SimContext.fresh(3)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    with pytest.raises(ValueError, match="at least one shard"):
        build_fleet(ctx, PProxConfig(shuffle_size=0), lambda: stub, shards=0)


def test_entry_for_routes_by_request_nonce():
    ctx, fleet = _fleet(shards=2)
    by_nonce = {}
    for nonce in range(1, 40):
        entry = fleet.entry_for(SimpleNamespace(request_id=nonce))
        shard = fleet.shard_of(entry)
        assert entry in shard.ua_instances
        by_nonce[nonce] = shard.shard_id
    assert set(by_nonce.values()) == {"s0", "s1"}
    # Re-routing the same nonce stays on the same shard.
    for nonce, sid in list(by_nonce.items())[:10]:
        again = fleet.shard_of(fleet.entry_for(SimpleNamespace(request_id=nonce)))
        assert again.shard_id == sid


def test_shard_of_unknown_instance_is_none():
    ctx, fleet = _fleet(shards=1)
    assert fleet.shard_of(FakeInstance("stranger")) is None


def test_add_shard_without_activate_takes_no_traffic():
    ctx, fleet = _fleet(shards=1)
    target = fleet.add_shard(activate=False)
    assert target.state == "provisioning"
    assert target.shard_id not in fleet.directory.ring
    for nonce in range(1, 60):
        assert fleet.directory.route(nonce).shard_id == "s0"
    fleet.directory.activate(target.shard_id)
    target.set_state("live")
    owners = {fleet.directory.route(n).shard_id for n in range(60, 200)}
    assert owners == {"s0", "s1"}


def test_remove_shard_requires_ring_deactivation_first():
    ctx, fleet = _fleet(shards=2)
    shard = fleet.directory.shards["s1"]
    with pytest.raises(ValueError, match="still on the ring"):
        fleet.remove_shard(shard)
    fleet.directory.deactivate("s1")
    fleet.remove_shard(shard)
    assert shard.state == "retired"
    assert len(fleet.ua_instances) == len(fleet.ia_instances) == 2
    assert all(inst not in fleet.ua_balancer.backends for inst in shard.ua_instances)


def test_restart_instance_stays_inside_the_failure_domain():
    ctx, fleet = _fleet(shards=2)
    shard = fleet.directory.shards["s1"]
    instance = shard.ua_instances[0]
    instance.fail()
    fleet.restart_instance(instance)
    assert instance.alive
    assert instance.enclave.host_node.startswith(f"node-{shard.domain}-")
    assert placement_violations(fleet) == []


# -- placement -------------------------------------------------------------


def test_domain_node_format():
    assert domain_node("fd-s0", "UA", 1) == "node-fd-s0-ua-1"


def test_domain_kill_plan_covers_exactly_one_shard():
    ctx, fleet = _fleet(shards=2)
    plan = domain_kill_plan(fleet, "fd-s1", at=1.0, outage=0.5)
    targets = {event.target for event in plan.events}
    shard = fleet.directory.shards["s1"]
    assert targets == {inst.name for inst in shard.instances()}
    assert len(plan.events) == 4  # 2 UA + 2 IA
    assert all(e.kind == "crash" and e.at == 1.0 for e in plan.events)
    with pytest.raises(ValueError, match="no instances placed"):
        domain_kill_plan(fleet, "fd-sX", at=1.0, outage=0.5)


def test_placement_violations_flag_shared_domain_and_stray_node():
    ctx, fleet = _fleet(shards=2)
    fleet.directory.shards["s1"].domain = "fd-s0"
    problems = placement_violations(fleet)
    assert any("share failure domain" in p for p in problems)
    ctx, fleet = _fleet(shards=1)
    fleet.directory.shards["s0"].ua_instances[0].enclave.host_node = "node-elsewhere-0"
    problems = placement_violations(fleet)
    assert any("outside domain" in p for p in problems)


# -- supervisor ------------------------------------------------------------


def test_split_flips_after_barrier_then_completes_after_quiet_period():
    ctx, fleet = _fleet(shards=2)
    supervisor = FleetSupervisor(
        loop=ctx.loop, fleet=fleet, tick_interval=0.05, drain_grace=0.2
    )
    supervisor.start()
    target = supervisor.split("s0")
    source = fleet.directory.shards["s0"]
    assert source.state == "splitting"
    assert target.state == "provisioning"
    assert supervisor.guard("UA") and supervisor.guard("IA")
    ctx.loop.run_until(3.0)
    supervisor.stop()
    assert supervisor.splits_completed == 1
    assert source.state == "live" and target.state == "live"
    assert target.shard_id in fleet.directory.ring
    assert not supervisor.guard("UA")
    op = supervisor.operations[0]
    assert op.phase == "done"
    # The handoff barrier: flip first, then at least a quiet period of
    # drain before the operation counts as complete.
    assert op.completed_at - op.flipped_at >= max(
        fleet.config.shuffle_timeout, supervisor.drain_grace
    )


def test_split_requires_a_live_source():
    ctx, fleet = _fleet(shards=1)
    supervisor = FleetSupervisor(loop=ctx.loop, fleet=fleet)
    supervisor.split("s0")
    with pytest.raises(ValueError, match="not live; cannot split"):
        supervisor.split("s0")
    with pytest.raises(KeyError):
        supervisor.split("s9")


def test_merge_drains_then_retires_the_source():
    ctx, fleet = _fleet(shards=2)
    supervisor = FleetSupervisor(
        loop=ctx.loop, fleet=fleet, tick_interval=0.05, drain_grace=0.2
    )
    supervisor.start()
    supervisor.merge("s1", "s0")
    assert fleet.directory.shards["s1"].state == "merging"
    ctx.loop.run_until(3.0)
    supervisor.stop()
    assert supervisor.merges_completed == 1
    assert fleet.directory.shards["s1"].state == "retired"
    assert "s1" not in fleet.directory.ring
    assert len(fleet.ua_instances) == 2  # only s0's pair left
    for nonce in range(1, 80):
        assert fleet.directory.route(nonce).shard_id == "s0"


def test_merge_validation():
    ctx, fleet = _fleet(shards=2)
    supervisor = FleetSupervisor(loop=ctx.loop, fleet=fleet)
    with pytest.raises(ValueError, match="cannot absorb"):
        supervisor.merge("s0", "s0")
    fleet.directory.shards["s1"].set_state("draining")
    with pytest.raises(ValueError, match="not live; cannot merge"):
        supervisor.merge("s1", "s0")


def test_probe_ejects_dead_instances_and_readmits_recovered_ones():
    ctx, fleet = _fleet(shards=2)
    supervisor = FleetSupervisor(loop=ctx.loop, fleet=fleet, tick_interval=0.05)
    shard = fleet.directory.shards["s0"]
    victim = shard.ua_instances[0]
    supervisor.start()
    victim.alive = False
    ctx.loop.run_until(0.2)
    assert supervisor.ejections >= 1
    assert not shard.ua_balancer.contains(victim)
    assert not fleet.ua_balancer.contains(victim)
    victim.alive = True
    ctx.loop.run_until(0.4)
    supervisor.stop()
    assert supervisor.readmissions >= 1
    assert shard.ua_balancer.contains(victim)
    assert fleet.ua_balancer.contains(victim)


def test_instance_down_pauses_a_split_and_recovery_resumes_it():
    """Pause-never-abort: a dead instance of an involved shard parks
    the operation where it stands; it advances once health returns."""
    ctx, fleet = _fleet(shards=2)
    supervisor = FleetSupervisor(
        loop=ctx.loop, fleet=fleet, tick_interval=0.05, drain_grace=0.2
    )
    supervisor.start()
    target = supervisor.split("s0")
    victim = target.ua_instances[0]
    victim.alive = False
    ctx.loop.run_until(1.5)
    assert supervisor.paused
    assert supervisor.pause_reasons.get("instance_down", 0) >= 1
    assert supervisor.splits_completed == 0
    victim.alive = True
    ctx.loop.run_until(3.5)
    supervisor.stop()
    assert not supervisor.paused
    assert supervisor.splits_completed == 1
    assert target.state == "live"
