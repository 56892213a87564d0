"""Deployment tables (Table 2 / Table 3) and the elastic autoscaler."""

from __future__ import annotations

import pytest

from repro.cluster.autoscaler import ElasticScaler
from repro.cluster.health import liveness_pass
from repro.cluster.deployments import (
    CLUSTER_NODE_BUDGET,
    MACRO_BASELINES,
    MACRO_FULL,
    MICRO_CONFIGS,
    cluster_plan,
)
from repro.context import SimContext
from repro.lrs.stub import StubLrs
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LoadBalancer, RoundRobinPolicy
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def test_table2_has_nine_configurations():
    assert list(MICRO_CONFIGS) == [f"m{i}" for i in range(1, 10)]


def test_table2_feature_ladder():
    """m1 -> m2 adds encryption; m2 -> m3 adds SGX; m4 disables item
    pseudonymization; m5/m6 add shuffling; m7-m9 scale out."""
    assert not MICRO_CONFIGS["m1"].encryption
    assert MICRO_CONFIGS["m2"].encryption and not MICRO_CONFIGS["m2"].sgx
    assert MICRO_CONFIGS["m3"].sgx and MICRO_CONFIGS["m3"].shuffle_size == 0
    assert not MICRO_CONFIGS["m4"].item_pseudonymization
    assert MICRO_CONFIGS["m5"].shuffle_size == 5
    assert MICRO_CONFIGS["m6"].shuffle_size == 10
    for name, instances in [("m7", 2), ("m8", 3), ("m9", 4)]:
        assert MICRO_CONFIGS[name].ua_instances == instances
        assert MICRO_CONFIGS[name].ia_instances == instances


def test_table2_rps_ladder():
    """Each proxy pair buys 250 RPS (§8.1.2)."""
    for index, name in enumerate(["m6", "m7", "m8", "m9"], start=1):
        assert MICRO_CONFIGS[name].max_rps == 250 * index


def test_micro_config_to_pprox_config():
    config = MICRO_CONFIGS["m4"].pprox_config()
    assert isinstance(config, PProxConfig)
    assert config.encryption and not config.item_pseudonymization


def test_table3_baselines_frontend_ladder():
    assert [MACRO_BASELINES[f"b{i}"].frontends for i in (1, 2, 3, 4)] == [3, 6, 9, 12]
    assert all(not c.with_proxy for c in MACRO_BASELINES.values())


def test_table3_full_configs_pair_proxy_with_lrs():
    for index in (1, 2, 3, 4):
        config = MACRO_FULL[f"f{index}"]
        assert config.with_proxy
        assert config.ua_instances == config.ia_instances == index
        assert config.frontends == 3 * index
        assert config.shuffle_size == 10


def test_table3_node_accounting():
    """b1-b4 use 7-16 LRS nodes; f-configs add 30-50 % overhead (§8.2)."""
    assert [MACRO_BASELINES[f"b{i}"].lrs_nodes for i in (1, 2, 3, 4)] == [7, 10, 13, 16]
    assert MACRO_FULL["f1"].proxy_overhead == pytest.approx(2 / 7)
    assert MACRO_FULL["f4"].proxy_overhead == pytest.approx(8 / 16)


def test_baseline_pprox_config_is_none():
    assert MACRO_BASELINES["b1"].pprox_config() is None


def test_cluster_plans_fit_the_testbed():
    for name in list(MICRO_CONFIGS) + list(MACRO_BASELINES) + list(MACRO_FULL):
        roles, count = cluster_plan(name)
        assert count <= CLUSTER_NODE_BUDGET
        assert len(roles) == count


def test_biggest_plan_nearly_fills_27_nodes():
    _, count = cluster_plan("f4")
    assert count == 26  # 12 fe + 4 support + 4 UA + 4 IA + 2 injectors


def test_unknown_plan_rejected():
    with pytest.raises(KeyError):
        cluster_plan("z9")


# -- autoscaler ------------------------------------------------------------


def _scaled_service():
    rng = RngRegistry(seed=17)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    ctx = SimContext(loop=loop, network=network, rng=rng)
    service = build_pprox(ctx, PProxConfig(shuffle_size=0), lrs_picker=lambda: stub)
    return loop, service


def test_autoscaler_scales_up_under_load():
    loop, service = _scaled_service()
    scaler = ElasticScaler(loop=loop, service=service, interval=1.0, high_rps=10.0)
    scaler.start()
    # Simulate heavy per-instance throughput by bumping counters.
    def pump():
        for instance in service.ua_instances:
            instance.requests_processed += 100
        loop.schedule(1.0, pump)

    loop.schedule(0.5, pump)
    loop.run_until(3.5)
    scaler.stop()
    assert len(service.ua_instances) > 1
    assert any(d.action == "scale-up" for d in scaler.decisions)


def test_autoscaler_scales_down_when_idle():
    loop, service = _scaled_service()
    service.scale("UA")
    service.scale("UA")
    scaler = ElasticScaler(loop=loop, service=service, interval=1.0, low_rps=5.0)
    scaler.start()
    loop.run_until(3.5)
    scaler.stop()
    assert len(service.ua_instances) < 3
    assert any(d.action == "scale-down" for d in scaler.decisions)


def test_autoscaler_respects_min_instances():
    loop, service = _scaled_service()
    scaler = ElasticScaler(loop=loop, service=service, interval=1.0, low_rps=5.0,
                           min_instances=1)
    scaler.start()
    loop.run_until(10.0)
    scaler.stop()
    assert len(service.ua_instances) >= 1
    assert len(service.ia_instances) >= 1


def test_evaluate_without_liveness_info_still_scales_down():
    """``_evaluate``'s liveness argument is optional.  The regression:
    it once defaulted to a shared tuple typed as a List, so callers
    passing nothing got a value that broke list-normalizing branches.
    ``None`` must behave as "no liveness info" and still act."""
    loop, service = _scaled_service()
    service.scale("UA")
    scaler = ElasticScaler(loop=loop, service=service, low_rps=5.0)
    scaler._evaluate("UA", 0.0, 2, None)
    assert [d.action for d in scaler.decisions] == ["scale-down"]
    assert len(service.ua_instances) == 1


def test_evaluate_empty_live_list_with_overload_trigger_armed():
    """An empty live list (every instance just crashed) must not trip
    the overload branch or crash — the rate branch still decides."""
    loop, service = _scaled_service()
    service.scale("UA")
    scaler = ElasticScaler(
        loop=loop, service=service, low_rps=5.0, overload_sojourn_threshold=0.01
    )
    scaler._evaluate("UA", 0.0, 2, [])
    assert scaler.overload_scale_ups == 0
    assert [d.action for d in scaler.decisions] == ["scale-down"]


def test_autoscaler_respects_max_instances():
    loop, service = _scaled_service()
    scaler = ElasticScaler(loop=loop, service=service, interval=1.0, high_rps=1.0,
                           max_instances=2)
    scaler.start()

    def pump():
        for instance in service.ua_instances:
            instance.requests_processed += 1000
        for instance in service.ia_instances:
            instance.requests_processed += 1000
        loop.schedule(1.0, pump)

    loop.schedule(0.5, pump)
    loop.run_until(8.0)
    scaler.stop()
    assert len(service.ua_instances) <= 2
    assert len(service.ia_instances) <= 2


# -- the shared liveness pass (HealthMonitor and FleetSupervisor) ----------


def _two_balancer_pool():
    """Three UAs pooled twice, as a fleet pools a shard's instances in
    the shard balancer and in the global one."""
    _, service = _scaled_service()
    service.scale("UA")
    service.scale("UA")
    shard_balancer = LoadBalancer(
        name="shard", policy=RoundRobinPolicy(), backends=list(service.ua_instances)
    )
    return service, (shard_balancer, service.ua_balancer)


def test_liveness_pass_ejects_from_every_balancer_in_instance_order():
    service, balancers = _two_balancer_pool()
    first, second, third = service.ua_instances
    third.fail()
    first.fail()
    probe = lambda: list(
        liveness_pass(service.ua_instances, balancers, "UA", service.provisioner)
    )
    assert probe() == [("ejected", first), ("ejected", third)]
    assert all(balancer.backends == [second] for balancer in balancers)
    assert probe() == []  # edge-triggered: already out of the authoritative pool


def test_liveness_pass_reprovisions_a_stale_enclave_before_readmitting_it():
    service, balancers = _two_balancer_pool()
    victim = service.ua_instances[1]
    victim.fail()
    list(liveness_pass(service.ua_instances, balancers, "UA", service.provisioner))
    service.restart_instance(victim)
    service.provisioner.key_generation += 1  # an announce the restart missed
    for instance in service.ua_instances:
        if instance is not victim:
            service.provisioner.reprovision("UA", instance.enclave)
    steps = liveness_pass(service.ua_instances, balancers, "UA", service.provisioner)
    assert next(steps) == ("reprovisioned", victim)
    assert service.provisioner.verify_generation(victim.enclave)
    assert not any(balancer.contains(victim) for balancer in balancers)
    assert next(steps) == ("readmitted", victim)
    assert all(balancer.contains(victim) for balancer in balancers)
    assert list(steps) == []


def test_liveness_pass_without_a_provisioner_readmits_unverified():
    """A multi-tenant service has no provisioner, hence no generation."""
    service, balancers = _two_balancer_pool()
    victim = service.ua_instances[0]
    victim.fail()
    list(liveness_pass(service.ua_instances, balancers, "UA", None))
    service.restart_instance(victim)
    assert list(liveness_pass(service.ua_instances, balancers, "UA", None)) == [
        ("readmitted", victim)
    ]
