"""The fleet drill: a whole failure domain dies mid-split, nobody notices."""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import EXPERIMENT_INDEX
from repro.experiments.fleet import FleetDrillResult, run_fleet_drill
from repro.telemetry import EventLog, Telemetry

SEED, RPS, DURATION = 23, 360.0, 6.0


@pytest.fixture(scope="module")
def drill():
    """One shared drill (deterministic, so sharing is safe)."""
    return run_fleet_drill(seed=SEED, rps=RPS, duration=DURATION)


def test_drill_passes_all_acceptance_checks(drill):
    assert drill.problems() == []
    assert drill.ok


def test_domain_kill_cost_zero_client_calls(drill):
    assert drill.issued > 0
    assert drill.failed == 0
    assert drill.goodput >= 0.9
    # The ride-over is retries/hedges re-rolling their nonce (hence
    # their shard), not luck: the client visibly worked for it.
    assert drill.retries_performed + drill.hedges_launched > 0
    assert drill.failovers > 0
    assert drill.routed >= drill.issued


def test_whole_domain_crash_was_injected_and_healed(drill):
    assert drill.crashes_injected == 2 * drill.instances_per_shard
    assert drill.restarts_completed == drill.crashes_injected
    assert drill.ejections >= drill.crashes_injected
    assert drill.readmissions >= drill.ejections


def test_split_completed_with_the_kill_inside_its_window(drill):
    assert drill.splits_started == drill.splits_completed == 1
    assert drill.split_started_at <= drill.kill_time <= drill.split_completed_at
    assert drill.split_flipped_at is not None
    assert drill.shards_final == drill.shards_initial + 1


def test_anonymity_floor_holds_throughout(drill):
    assert drill.window_flushes > 0
    assert drill.min_window_flush >= drill.shuffle_size
    assert drill.min_effective_anonymity >= drill.required_anonymity


def test_every_audit_clean(drill):
    assert drill.tag_exposures == []
    assert drill.trace_exposures == []
    assert drill.shard_violations == []
    assert drill.reject_violations == []
    assert drill.placement_problems == []
    assert drill.audit_violations == 0


def test_fleet_events_cover_the_split_lifecycle(drill):
    names = [event["event"] for event in drill.fleet_events]
    for expected in (
        "shard_split_started",
        "shard_ring_flipped",
        "shard_split_completed",
        "shard_instance_ejected",
        "shard_instance_readmitted",
    ):
        assert expected in names, f"missing fleet event {expected!r}"
    assert names.index("shard_split_started") < names.index("shard_split_completed")


def test_same_seed_drills_are_identical(drill):
    again = run_fleet_drill(seed=SEED, rps=RPS, duration=DURATION)
    assert again.to_dict() == drill.to_dict()
    assert again.fleet_events == drill.fleet_events


def test_slo_verdict_and_telemetry_artifact(tmp_path):
    telemetry = Telemetry()
    result = run_fleet_drill(seed=5, rps=300.0, duration=5.0, telemetry=telemetry)
    assert result.ok
    report = result.slo_report
    assert report.ok
    assert {m.name for m in report.measurements} == {
        "goodput", "anonymity_floor", "p99_latency_seconds",
    }
    paths = telemetry.write_artifact(str(tmp_path))
    content = (tmp_path / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"shard_split_completed"' in content
    assert '"shard_instance_ejected"' in content
    # The ring flip says which way under ``change``; ``kind`` stays the
    # envelope's, so filtering the artifact on it finds every fleet event.
    fleet_lines = [
        line for line in EventLog.parse_jsonl(content) if line["kind"] == "fleet"
    ]
    assert fleet_lines == result.fleet_events
    [flip] = [line for line in fleet_lines if line["event"] == "shard_ring_flipped"]
    assert flip["change"] == "split"


def test_result_to_dict_is_json_ready(drill):
    payload = json.dumps(drill.to_dict(), sort_keys=True)
    assert json.loads(payload)["min_window_flush"] == drill.min_window_flush


def test_empty_result_defaults():
    empty = FleetDrillResult(
        seed=0, rps=0.0, duration=0.0, split_at=0.0, kill_at=0.0, outage=0.0
    )
    assert empty.goodput == 0.0
    assert not empty.ok  # nothing happened, so the drill proves nothing


def test_fleet_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["fleet"]
    assert "repro.fleet" in experiment.modules
    assert "repro.experiments.fleet" in experiment.modules
    assert experiment.bench == "tests/test_fleet_scenario.py"
