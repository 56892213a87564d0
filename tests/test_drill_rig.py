"""The drill rig's contract: drained loops, one run-end record, real shed counts."""

from __future__ import annotations

from repro.experiments.capacity import (
    CapacityPlan,
    CapacityPointResult,
    CapacityTarget,
    verify_plan,
)
from repro.experiments.fleet import FleetDrillResult
from repro.experiments.rig import DrillRig
from repro.obs.slo import Objective
from repro.overload import OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.telemetry import Telemetry


def test_run_drains_with_scraper_and_slo_engine_both_armed():
    """The telemetry scraper and the SLO tick each re-arm while the
    loop has pending work; the rig bounds the engine at the drain
    horizon so the pair cannot keep each other alive."""
    telemetry = Telemetry(scrape_interval=0.5)
    rig = DrillRig("contract", 5, grace=1.0, telemetry=telemetry)
    rig.deploy(PProxConfig(shuffle_size=2, shuffle_timeout=0.1))
    rig.instrument()
    rig.offer(20.0, 1.0, users=5)
    rig.watch({"flushes": lambda: len(rig.flushes)})
    assert telemetry.scraper.running
    rig.run()

    assert rig.loop.pending == 0
    assert rig.injector.report.completed == rig.injector.report.issued == 20
    assert len(rig.slo.samples) > 2  # it did tick while the run was live
    assert rig.offered_window(layer="UA")
    assert {flush.instance for flush in rig.flushes} == {"pprox-ua-0", "pprox-ia-0"}

    report = rig.finish({"seed": 5}, [
        Objective(name="goodput", kind="ratio", target=0.99, good="completed", total="issued"),
    ])
    assert report.ok and report.experiment == "contract"
    ends = [
        event for event in telemetry.event_log.events
        if event.kind == "run" and event.payload.get("phase") == "end"
    ]
    assert len(ends) == 1  # finalize_run ran exactly once
    assert ends[0].payload["scenario"] == "contract"
    assert not telemetry.scraper.running


def test_shed_total_counts_the_stages_real_sheds():
    """Regression: the fleet drill and the capacity legs read a
    stage attribute that does not exist and reported 0 sheds
    whatever happened.  Drive a one-shard fleet leg past a tight
    admission limit: the rig's count is the stages' own."""
    rig = DrillRig("sheds", 3, grace=2.0, frontends=3)
    rig.deploy(
        PProxConfig(shuffle_size=4, shuffle_timeout=0.2),
        shards=1,
        overload=OverloadPolicy(ingress_capacity=8, max_inflight=4, admission_max_sojourn=0.01),
        request_timeout=0.5,
        max_retries=1,
    )
    rig.instrument()
    rig.offer(1500.0, 1.0)
    rig.run()
    fleet = rig.service
    stage_sheds = sum(i.sheds for i in fleet.ua_instances + fleet.ia_instances)
    assert rig.shed_total == stage_sheds > 0
    assert rig.counters_for(FleetDrillResult)["shed_total"] == stage_sheds
    assert rig.counters_for(CapacityPointResult)["shed_total"] == stage_sheds


def test_capacity_leg_reports_its_sheds():
    """The same bug end to end: one pair offered four times its knee
    sheds at admission, and ``capacity.json`` must say so."""
    target = CapacityTarget(rps=1000.0, p99_slo=0.5)
    plan = CapacityPlan(
        shards=1, instances_per_shard=1, shuffle_size=4, shuffle_timeout=0.2, pairs=1
    )
    result = verify_plan(target, plan, seed=3, duration=2.0, chaos=False)
    assert result.shed_total > 0
    assert result.to_dict()["shed_total"] == result.shed_total


def test_anonymity_floor_counts_the_ia_alive_behind_each_flush():
    """The floor is min(size x live IA) per released batch, so a batch
    released while an IA is down counts for less than the static
    ``min(size) * len(ia_instances)`` the drivers used to compute."""
    rig = DrillRig("contract", 5, grace=1.0, frontends=1)
    rig.deploy(PProxConfig(ia_instances=2, shuffle_size=2, shuffle_timeout=0.1))
    adversary, rejects = rig.observe_wire()
    assert adversary.lrs_store is rig.lrs.engine.store
    rig.instrument()
    rig.offer(40.0, 1.0, users=5)
    rig.loop.schedule(0.5, lambda: rig.service.ia_instances[1].fail())
    rig.watch({})
    rig.run()
    assert rig.anonymity_floor([]) is None
    before, after = rig.released(until=0.5), rig.released(since=0.5)
    assert before and after
    assert rig.anonymity_floor(before) == min(f.size for f in before) * 2
    assert rig.anonymity_floor(after) == min(f.size for f in after) * 1
    assert {obs.source_role for obs in adversary.observations} >= {"client", "ua", "ia", "lrs"}
    assert rejects.violations() == []
