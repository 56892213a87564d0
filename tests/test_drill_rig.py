"""The drill rig's contract: drained loops, one run-end record, real shed
counts, one operator timeline armed in one place, and one verdict per
run that every gate's acceptance checks live in."""

from __future__ import annotations

import json

import pytest

from repro.crypto.keys import KeyFactory
from repro.experiments.capacity import (
    DEFAULT_TARGETS,
    CapacityPlan,
    CapacityTarget,
    capacity_chaos_spec,
    capacity_slo_objectives,
    solve_plan,
    verify_plan,
)
from repro.experiments.chaos import chaos_slo_objectives
from repro.experiments.fleet import fleet_slo_objectives
from repro.experiments.overload import overload_slo_objectives, sweep_slo_objectives
from repro.experiments.rig import DrillRig
from repro.experiments.rotation import ROTATION_CONFIG, rotation_slo_objectives
from repro.experiments.scale import scale_slo_objectives, scale_slo_verdict
from repro.faults import FaultEvent, FaultPlan
from repro.obs import smoke
from repro.obs.slo import Objective, evaluate_static
from repro.overload import OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.proxy.epochs import RotationCoordinator
from tests.conftest import drill_records, streamed, written


def test_run_drains_with_scraper_and_slo_engine_both_armed(tmp_path):
    """The telemetry scraper and the SLO tick each re-arm while the
    loop has pending work; the rig bounds the engine at the drain
    horizon so the pair cannot keep each other alive."""
    rig = DrillRig("contract", 5, grace=1.0, out_dir=str(tmp_path))
    rig.deploy(PProxConfig(shuffle_size=2, shuffle_timeout=0.1))
    rig.instrument()
    rig.offer(20.0, 1.0, users=5)
    rig.watch({"flushes": lambda: len(rig.flushes)})
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
    ends = [record for record in drill_records(rig, "run") if record.get("phase") == "end"]
    assert len(ends) == 1  # finalize_run ran exactly once
    assert ends[0]["scenario"] == "contract"


def test_an_unwatched_finish_is_judged_statically_and_closes_the_run_once(tmp_path):
    """No engine watched the run (capacity's legs): ``finish`` judges it
    on its run-end values at the clock's end, under its run label, and
    the one run-end record carries that verdict — never the checks."""
    rig = DrillRig("static", 5, grace=1.0, run_label="static/leg", out_dir=str(tmp_path))
    rig.deploy(PProxConfig(shuffle_size=2, shuffle_timeout=0.1))
    rig.instrument()
    rig.offer(20.0, 1.0, users=5)
    rig.run()
    assert rig.slo is None

    report = rig.finish({"issued": rig.injector.report.issued}, [
        Objective(name="goodput", kind="ratio", target=0.99, good="completed", total="issued"),
        Objective(name="issued", kind="at_least", target=1, value="issued"),
    ], {"completed": rig.injector.report.completed})
    assert report is rig.verdict and report.ok
    assert (report.experiment, report.generated_at) == ("static/leg", rig.loop.now)
    assert all(m.burn_long is None and m.burn_short is None for m in report.measurements)
    assert rig.summary == {"issued": 20}
    ends = [record for record in drill_records(rig, "run") if record.get("phase") == "end"]
    assert len(ends) == 1
    assert ends[0]["slo"]["ok"] is True
    assert ends[0]["issued"] == 20 and "completed" not in ends[0]
    # No engine, no slo events.
    assert drill_records(rig, "slo") == [] and rig.event_count("slo") == 0


def _gate_objectives():
    target = DEFAULT_TARGETS[0]
    plan = solve_plan(target)
    return {
        "chaos": chaos_slo_objectives(),
        "rotation": rotation_slo_objectives(8.0),
        "fleet": fleet_slo_objectives(8.0),
        "overload": overload_slo_objectives(4.0) + sweep_slo_objectives(4.0),
        "obs": smoke.obs_slo_objectives(8.0),
        "capacity-clean": capacity_slo_objectives(target, plan, chaos=False),
        "capacity-chaos": capacity_slo_objectives(
            target, plan, chaos=True, spec=capacity_chaos_spec(8.0)
        ),
        "scale": scale_slo_objectives(0.5),
    }


@pytest.mark.parametrize("gate", sorted(_gate_objectives()))
def test_an_all_zero_summary_fails_its_own_verdict(gate):
    """A run that did nothing proves nothing: every gate asks for
    evidence, so a summary of zeros never passes."""
    objectives = _gate_objectives()[gate]
    zeros = {key: 0 for o in objectives for key in (o.good, o.total, o.value) if key}
    assert not evaluate_static(objectives, zeros, gate).ok


def test_an_empty_scale_sweep_fails_its_verdict():
    report = scale_slo_verdict({"deadline": 0.5, "points": []})
    assert [m.name for m in report.measurements if not m.ok] == ["issued"]


@pytest.mark.parametrize(
    "key, value, check",
    [("audit_violations", 1, "audit_violations"), ("batch_spans", 0, "batch_spans")],
)
def test_a_flipped_counter_fails_its_check_and_the_gate_names_it(
    monkeypatch, tmp_path, key, value, check
):
    """Flip one run-end value of the real obs run — a summary counter
    or a verdict-only check — on its way into ``finish``: that one
    objective fails in ``slo.json``, and the gate's problems, which are
    the verdict's, name it."""
    finish = DrillRig.finish

    def flipped(self, summary, objectives, checks=None):
        if key in summary:
            summary = {**summary, key: value}
        else:
            checks = {**checks, key: value}
        return finish(self, summary, objectives, checks)

    monkeypatch.setattr(DrillRig, "finish", flipped)
    problems = smoke.gate(str(tmp_path))
    verdict = json.loads((tmp_path / "slo.json").read_text())
    assert [o["name"] for o in verdict["objectives"] if not o["ok"]] == [check]
    assert len(problems) == 1 and f"obs {check}:" in problems[0]


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
    assert rig.counters_for("shed_total", "issued") == {
        "shed_total": stage_sheds, "issued": rig.injector.report.issued,
    }


def test_capacity_leg_reports_its_sheds():
    """The same bug end to end: one pair offered four times its knee
    sheds at admission, and ``capacity.json`` must say so."""
    target = CapacityTarget(rps=1000.0, p99_slo=0.5)
    plan = CapacityPlan(
        shards=1, instances_per_shard=1, shuffle_size=4, shuffle_timeout=0.2, pairs=1
    )
    rig = verify_plan(target, plan, seed=3, duration=2.0, chaos=False)
    assert rig.summary["shed_total"] == rig.shed_total > 0


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


def test_one_plan_arms_faults_and_a_rotation_and_run_stops_every_controller():
    """A crash, a partition and a rotate armed as one plan: each fires,
    and is stamped, at ``rig.start + at``; with no stop list the run
    drains with every controller stopped."""
    rig = DrillRig("timeline", 5, grace=2.0, frontends=1)
    stream = streamed(rig.telemetry)
    rig.deploy(ROTATION_CONFIG)
    rig.add_monitor(0.1)
    coordinator = RotationCoordinator(
        loop=rig.loop, service=rig.service, layer="UA", store=rig.lrs.engine.store,
        provider=rig.ctx.resolved_provider(),
        factory=KeyFactory(
            rng_int=rig.rng.int_fn("rot"), rng_bytes=rig.rng.bytes_fn("rot-b")
        ),
        tick_interval=0.05, retire_grace=0.3, telemetry=rig.telemetry,
    )
    rig.arm(FaultPlan.from_events([
        FaultEvent(at=0.4, kind="rotate", target="UA"),
        FaultEvent(at=0.6, kind="partition", target="ua|ia", duration=0.2),
        FaultEvent(at=0.9, kind="crash", target="pprox-ua-1", duration=0.3),
    ]), rotation=coordinator)
    rig.instrument()
    rig.preload()
    rig.offer(40.0, 2.0)
    rig.run()

    assert rig.start > 0  # preload moved the clock; plan times are relative
    announced = written(stream, "rotation")[0]
    assert announced["event"] == "epoch_announced"
    assert announced["time"] == rig.start + 0.4
    faults = {event["event"]: event for event in written(stream, "fault")}
    for name, at in (("fault_window_open", 0.6), ("instance_crashed", 0.9)):
        assert faults[name]["time"] == faults[name]["at"] == rig.start + at
    assert faults["instance_restarted"]["time"] == rig.start + 0.9 + 0.3
    assert rig.loop.pending == 0


def test_split_runs_through_one_plan():
    rig = DrillRig("timeline", 7, grace=2.0, frontends=1)
    rig.deploy(PProxConfig(shuffle_size=0), shards=2)
    rig.arm(FaultPlan.from_events([FaultEvent(at=0.2, kind="split", target="s0")]))
    rig.instrument()
    rig.offer(40.0, 3.0)
    rig.run()

    supervisor = rig.fleet_supervisor
    assert supervisor.splits_completed == 1
    assert [shard.state for shard in rig.service.directory.shards.values()] == ["live"] * 3
    assert rig.loop.pending == 0
    report = rig.injector.report
    assert report.failed == 0 and report.completed == report.issued > 0


@pytest.mark.parametrize(
    "verb",
    [
        FaultEvent(at=1.0, kind="rotate", target="UA"),
        FaultEvent(at=1.0, kind="split", target="s0"),
    ],
    ids=lambda event: event.kind,
)
def test_a_verb_with_no_executor_is_refused_at_arm(verb):
    """Refused where the drill is written, not skipped when it fires."""
    rig = DrillRig("timeline", 5, grace=1.0)
    rig.deploy(PProxConfig(shuffle_size=0))
    with pytest.raises(ValueError, match="rotation coordinator|fleet supervisor"):
        rig.arm(FaultPlan.from_events([verb]))
