"""The overload sweep scenario: graceful degradation, privacy, determinism."""

from __future__ import annotations

import pytest

from repro.experiments.overload import (
    GOODPUT_RETENTION_FLOOR,
    OverloadResult,
    run_overload,
)
from repro.experiments.registry import EXPERIMENT_INDEX
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def sweep():
    """One shared sweep (the scenario is deterministic)."""
    return run_overload(seed=7, duration=6.0)


def test_sweep_passes_all_acceptance_checks(sweep):
    assert sweep.problems() == []
    assert sweep.ok


def test_every_cell_is_judged_and_the_sweep_keeps_the_headline_verdict(sweep):
    assert all(point.slo_report is not None for point in sweep.points)
    assert sweep.slo_report is sweep.point(protected=True, multiplier=2.0).slo_report
    assert sweep.slo_report.ok
    assert sweep.slo_report.objective("anonymity_floor").ok


def test_protected_goodput_survives_2x_overload(sweep):
    saturation = sweep.point(protected=True, multiplier=1.0)
    overloaded = sweep.point(protected=True, multiplier=2.0)
    assert overloaded.goodput_rps >= GOODPUT_RETENTION_FLOOR * saturation.goodput_rps


def test_unprotected_baseline_collapses(sweep):
    """The control arm: without protection the same load melts down,
    which is what makes the protected numbers meaningful."""
    saturation = sweep.point(protected=False, multiplier=1.0)
    baseline = sweep.point(protected=False, multiplier=2.0)
    protected = sweep.point(protected=True, multiplier=2.0)
    assert baseline.goodput_rps < 0.5 * saturation.goodput_rps
    assert protected.goodput_rps > 2 * baseline.goodput_rps
    assert protected.p99_seconds < baseline.p99_seconds


def test_sheds_happened_and_are_accounted_by_stage(sweep):
    overloaded = sweep.point(protected=True, multiplier=2.0)
    assert overloaded.shed_total > 0
    assert sum(overloaded.shed_by_stage.values()) == overloaded.shed_total
    assert "queue" in overloaded.shed_by_stage  # the bounded ingress bit


def test_anonymity_floor_holds_through_the_episode(sweep):
    """Sheds are pre-shuffle only: during the overloaded window no
    flush ever carried fewer than S entries, so the effective
    anonymity set never dropped below S*I."""
    for multiplier in (1.0, 2.0):
        point = sweep.point(protected=True, multiplier=multiplier)
        assert point.min_flush_during_load is not None
        assert point.anonymity_floor >= point.required_anonymity


def test_rejects_are_uniform_on_protected_hops(sweep):
    for point in sweep.points:
        if point.protected:
            assert point.reject_audit == []


def test_redaction_audit_clean_under_overload(sweep):
    for point in sweep.points:
        assert point.audit_violations == 0


def test_same_seed_sweeps_are_identical(sweep):
    again = run_overload(seed=7, duration=6.0)
    assert again.to_dict() == sweep.to_dict()


def test_telemetry_artifact_records_the_headline_cell(tmp_path):
    telemetry = Telemetry()
    result = run_overload(seed=3, duration=4.0, telemetry=telemetry)
    paths = telemetry.write_artifact(str(tmp_path))
    prom = (tmp_path / "telemetry.prom").read_text(encoding="utf-8")
    assert "pprox_shed_total" in prom
    assert "pprox_queue_sojourn_seconds" in prom
    assert "pprox_breaker_state" in prom
    assert "pprox_deadline_remaining_seconds" in prom
    events = (tmp_path / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"request_shed"' in events
    assert paths["events"].endswith("telemetry.jsonl")
    # The headline cell is the protected 2x point.
    headline = result.point(protected=True, multiplier=2.0)
    assert headline is not None and headline.shed_total > 0


def test_overload_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["overload"]
    assert "repro.overload" in experiment.modules
    assert experiment.bench == "tests/test_overload_scenario.py"


def test_result_to_dict_is_json_ready(sweep):
    import json

    payload = json.dumps(sweep.to_dict())
    assert json.loads(payload)["capacity_rps"] == sweep.capacity_rps


def test_empty_result_is_not_ok():
    empty = OverloadResult(seed=0, duration=0.0, capacity_rps=85.0, shuffle_size=4)
    assert not empty.ok  # no points: the sweep proves nothing
