"""The fleet drill: a whole failure domain dies mid-split, nobody notices."""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import EXPERIMENT_INDEX
from repro.experiments.fleet import run_fleet_drill
from repro.telemetry import EventLog
from repro.telemetry.instruments import _shuffle_buffers
from tests.conftest import objective

SEED, RPS, DURATION = 23, 360.0, 6.0


@pytest.fixture(scope="module")
def rig():
    """One shared drill (deterministic, so sharing is safe)."""
    return run_fleet_drill(seed=SEED, rps=RPS, duration=DURATION)


@pytest.fixture(scope="module")
def drill(rig):
    """The drill's run-end summary (``fleet.json``)."""
    return rig.summary


def test_drill_passes_all_acceptance_checks(rig):
    assert rig.verdict.problems() == []
    assert rig.verdict.ok


def test_domain_kill_cost_zero_client_calls(drill):
    assert drill["issued"] > 0
    assert drill["failed"] == 0
    assert drill["goodput"] >= 0.9
    # The ride-over is retries/hedges re-rolling their nonce (hence
    # their shard), not luck: the client visibly worked for it.
    assert drill["retries_performed"] + drill["hedges_launched"] > 0
    assert drill["failovers"] > 0
    assert drill["routed"] >= drill["issued"]


def test_whole_domain_crash_was_injected_and_healed(drill):
    assert drill["crashes_injected"] == 2 * drill["instances_per_shard"]
    assert drill["restarts_completed"] == drill["crashes_injected"]
    assert drill["ejections"] >= drill["crashes_injected"]
    assert drill["readmissions"] >= drill["ejections"]


def test_split_completed_with_the_kill_inside_its_window(rig, drill):
    assert drill["splits_started"] == drill["splits_completed"] == 1
    assert objective(rig.verdict, "kill_inside_split_window").ok
    assert drill["split_started_at"] <= drill["kill_time"] <= drill["split_completed_at"]
    assert drill["split_flipped_at"] is not None
    assert drill["shards_final"] == drill["shards_initial"] + 1


def test_anonymity_floor_holds_throughout(drill):
    assert drill["window_flushes"] > 0
    assert drill["min_window_flush"] >= drill["shuffle_size"]
    assert drill["min_effective_anonymity"] >= drill["required_anonymity"]


def test_every_audit_clean(drill):
    assert drill["tag_exposure_count"] == 0
    assert drill["trace_exposure_count"] == 0
    assert drill["shard_violation_count"] == 0
    assert drill["reject_violation_count"] == 0
    assert drill["placement_problem_count"] == 0
    assert drill["audit_violations"] == 0


def test_fleet_events_cover_the_split_lifecycle(rig):
    names = [event["event"] for event in rig.events("fleet")]
    for expected in (
        "shard_split_started",
        "shard_ring_flipped",
        "shard_split_completed",
        "shard_instance_ejected",
        "shard_instance_readmitted",
    ):
        assert expected in names, f"missing fleet event {expected!r}"
    assert names.index("shard_split_started") < names.index("shard_split_completed")


def test_shards_born_by_the_split_are_instrumented(rig):
    """The split adds a shard after ``instrument()`` ran: its buffers get
    the same batch spans, flush counters and flush-size samples as the
    shards that were there from the start."""
    ua_flushes = [flush for flush in rig.flushes if "-ua-" in flush.instance]
    born = rig.summary["shards_final"] - 1
    assert any(f"-s{born}-" in flush.instance for flush in ua_flushes)
    assert rig.telemetry.tracer.batch_spans == len(ua_flushes)
    registry = rig.telemetry.registry
    buffers = _shuffle_buffers(rig.service)
    assert any(f"-s{born}-" in buffer.name for buffer in buffers)
    for buffer in buffers:
        counter = registry.get("pprox_shuffle_flushes_total", {"buffer": buffer.name})
        assert counter is not None and counter.value() == buffer.flushes, buffer.name
    assert registry.get("pprox_shuffle_flush_size").count == len(rig.flushes)


def test_same_seed_drills_are_identical(rig):
    again = run_fleet_drill(seed=SEED, rps=RPS, duration=DURATION)
    assert again.summary == rig.summary
    assert again.events("fleet") == rig.events("fleet")


def test_slo_verdict_and_telemetry_artifact(rig, tmp_path):
    report = rig.verdict
    assert report.ok
    assert {m.name for m in report.measurements} == {
        "goodput", "anonymity_floor", "p99_latency_seconds",
        "failed", "domain_crashes_missed", "unrestarted_crashes", "unejected_crashes",
        "unreadmitted", "splits_completed", "kill_inside_split_window", "failovers",
        "window_flushes", "min_window_flush", "tag_exposure_count", "trace_exposure_count",
        "shard_violation_count", "reject_violation_count", "placement_problem_count",
        "audit_violations",
    }
    rig.telemetry.write_artifact(str(tmp_path))
    content = (tmp_path / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"shard_split_completed"' in content
    assert '"shard_instance_ejected"' in content
    # The ring flip says which way under ``change``; ``kind`` stays the
    # envelope's, so filtering the artifact on it finds every fleet event.
    fleet_lines = [
        line for line in EventLog.parse_jsonl(content) if line["kind"] == "fleet"
    ]
    assert fleet_lines == rig.events("fleet")
    [flip] = [line for line in fleet_lines if line["event"] == "shard_ring_flipped"]
    assert flip["change"] == "split"


def test_result_to_dict_is_json_ready(drill):
    payload = json.dumps(drill, sort_keys=True)
    assert json.loads(payload)["min_window_flush"] == drill["min_window_flush"]


def test_fleet_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["fleet"]
    assert "repro.fleet" in experiment.modules
    assert "repro.experiments.fleet" in experiment.modules
    assert experiment.bench == "tests/test_fleet_scenario.py"
