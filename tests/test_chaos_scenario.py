"""The chaos drill scenario: availability, recovery, determinism."""

from __future__ import annotations

import pytest

from repro.experiments.chaos import ChaosResult, run_chaos
from repro.experiments.registry import EXPERIMENT_INDEX
from repro.telemetry import EventLog, Telemetry


@pytest.fixture(scope="module")
def drill():
    """One shared short drill (the scenario is deterministic)."""
    return run_chaos(seed=7, rps=50.0, duration=8.0)


def test_drill_passes_all_acceptance_checks(drill):
    assert drill.problems() == []
    assert drill.ok


def test_the_run_carries_its_own_slo_verdict(drill):
    """No engine is handed in: the drill is judged by the run itself."""
    assert drill.slo_report.ok
    assert drill.slo_report.objective("anonymity_floor").ok


def test_availability_stays_above_floor(drill):
    assert drill.issued > 0
    assert drill.availability >= drill.availability_floor


def test_all_three_fault_kinds_actually_bit(drill):
    # Enclave crashes...
    assert drill.crashes_injected > 0
    # ...network faults (partition, random loss or delay spikes)...
    assert drill.partition_drops + drill.random_drops + drill.delays_injected > 0
    # ...and the LRS brownout.
    assert drill.brownout_rejected + drill.brownout_slowed > 0


def test_every_crash_recovered_before_the_end(drill):
    assert drill.restarts_completed == drill.crashes_injected
    assert drill.failovers == drill.crashes_injected
    assert drill.readmissions == drill.failovers
    assert drill.recovered


def test_client_resilience_did_the_recovering(drill):
    # The drill's availability comes from retries/hedges, not luck.
    assert drill.retries_performed > 0
    assert drill.retryable_errors > 0
    assert sum(drill.outcomes.values()) == drill.issued
    assert drill.outcomes["failed"] == drill.failed


def test_redaction_audit_clean_on_error_paths(drill):
    assert drill.audit_violations == 0


def test_same_seed_runs_are_identical(drill):
    again = run_chaos(seed=7, rps=50.0, duration=8.0)
    assert again.fault_events == drill.fault_events
    assert again.to_dict() == drill.to_dict()


def test_different_seed_runs_differ(drill):
    other = run_chaos(seed=11, rps=50.0, duration=8.0)
    assert other.fault_events != drill.fault_events


def test_fault_events_cover_injection_and_recovery(drill):
    names = [event["event"] for event in drill.fault_events]
    for expected in (
        "instance_crashed", "instance_restarted",
        "instance_ejected", "instance_readmitted",
        "fault_window_open", "fault_window_closed",
    ):
        assert expected in names, f"missing fault event {expected!r}"


def test_telemetry_artifact_records_the_drill(tmp_path):
    telemetry = Telemetry()
    result = run_chaos(seed=3, rps=40.0, duration=6.0, telemetry=telemetry)
    paths = telemetry.write_artifact(str(tmp_path))
    content = (tmp_path / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"instance_crashed"' in content
    assert result.fault_events  # the same events, structured
    assert (tmp_path / "telemetry.prom").read_text(encoding="utf-8")
    # A reader filtering the artifact on ``kind`` finds exactly the
    # events the in-memory envelope filter returned: the payload's own
    # fault kind travels as ``fault_kind`` and never clobbers it.
    lines = [line for line in EventLog.parse_jsonl(content) if line["kind"] == "fault"]
    assert lines == result.fault_events
    assert {"crash", "partition", "brownout"} <= {
        line["fault_kind"] for line in lines if "fault_kind" in line
    }


def test_chaos_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["chaos"]
    assert "repro.faults" in experiment.modules
    assert experiment.bench == "tests/test_chaos_scenario.py"


def test_result_to_dict_is_json_ready(drill):
    import json

    payload = json.dumps(drill.to_dict())
    assert json.loads(payload)["availability"] == drill.availability


def test_empty_result_defaults():
    empty = ChaosResult(seed=0, rps=0.0, duration=0.0, availability_floor=0.9)
    assert empty.availability == 1.0
    assert not empty.ok  # nothing was injected, so the drill proves nothing
