"""The overload sweep scenario: graceful degradation, privacy, determinism."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.overload import (
    GOODPUT_RETENTION_FLOOR,
    run_overload,
    sweep_cell,
)
from repro.experiments.registry import EXPERIMENT_INDEX
from tests.conftest import objective


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """One shared sweep (the scenario is deterministic): its headline
    cell's finished rig, its telemetry streamed to an out-dir."""
    return run_overload(seed=7, duration=6.0, out_dir=str(tmp_path_factory.mktemp("overload")))


@pytest.fixture(scope="module")
def sweep(headline):
    """The sweep's run-end summary: every cell."""
    return headline.summary


def test_sweep_passes_all_acceptance_checks(headline):
    assert headline.verdict.problems() == []
    assert headline.verdict.ok


def test_every_cell_is_judged_and_the_sweep_keeps_the_headline_verdict(headline, sweep):
    assert len(sweep["points"]) == 6
    assert headline.scenario == "overload"
    assert headline.telemetry.run_label.endswith("/protected/x2")
    assert headline.verdict.ok
    assert objective(headline.verdict, "anonymity_floor").ok
    # The headline's verdict is the sweep's: every protected cell's
    # audits and the degradation checks are entries of it.
    for name in ("goodput_retention", "p99_below_baseline", "reject_audit_x0.5",
                 "audit_violations_x1", "anonymity_floor_x2"):
        assert objective(headline.verdict, name).ok


def test_protected_goodput_survives_2x_overload(sweep):
    saturation = sweep_cell(sweep, protected=True, multiplier=1.0)
    overloaded = sweep_cell(sweep, protected=True, multiplier=2.0)
    assert overloaded["goodput_rps"] >= GOODPUT_RETENTION_FLOOR * saturation["goodput_rps"]


def test_unprotected_baseline_collapses(sweep):
    """The control arm: without protection the same load melts down,
    which is what makes the protected numbers meaningful."""
    saturation = sweep_cell(sweep, protected=False, multiplier=1.0)
    baseline = sweep_cell(sweep, protected=False, multiplier=2.0)
    protected = sweep_cell(sweep, protected=True, multiplier=2.0)
    assert baseline["goodput_rps"] < 0.5 * saturation["goodput_rps"]
    assert protected["goodput_rps"] > 2 * baseline["goodput_rps"]
    assert protected["p99_seconds"] < baseline["p99_seconds"]


def test_sheds_happened_and_are_accounted_by_stage(sweep):
    overloaded = sweep_cell(sweep, protected=True, multiplier=2.0)
    assert overloaded["shed_total"] > 0
    assert sum(overloaded["shed_by_stage"].values()) == overloaded["shed_total"]
    assert "queue" in overloaded["shed_by_stage"]  # the bounded ingress bit


def test_anonymity_floor_holds_through_the_episode(sweep):
    """Sheds are pre-shuffle only: during the overloaded window no
    flush ever carried fewer than S entries, so the effective
    anonymity set never dropped below S*I."""
    for multiplier in (1.0, 2.0):
        cell = sweep_cell(sweep, protected=True, multiplier=multiplier)
        assert cell["min_flush_during_load"] is not None
        assert cell["anonymity_floor"] >= cell["required_anonymity"]


def test_rejects_are_uniform_on_protected_hops(sweep):
    for cell in sweep["points"]:
        if cell["protected"]:
            assert cell["reject_audit"] == []


def test_redaction_audit_clean_under_overload(sweep):
    for cell in sweep["points"]:
        assert cell["audit_violations"] == 0


def test_same_seed_sweeps_are_identical(sweep):
    again = run_overload(seed=7, duration=6.0)
    assert again.summary == sweep


def test_telemetry_artifact_records_the_headline_cell(headline):
    out_dir = Path(headline.out_dir)
    prom = (out_dir / "telemetry.prom").read_text(encoding="utf-8")
    assert "pprox_shed_total" in prom
    assert "pprox_queue_sojourn_seconds" in prom
    assert "pprox_breaker_state" in prom
    assert "pprox_deadline_remaining_seconds" in prom
    events = (out_dir / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"request_shed"' in events
    assert sorted(path.name for path in out_dir.iterdir()) == ["telemetry.jsonl", "telemetry.prom"]
    # The headline cell is the protected 2x point, and the hub written
    # is that cell's.
    cell = sweep_cell(headline.summary, protected=True, multiplier=2.0)
    assert cell is not None and cell["shed_total"] > 0
    assert headline.telemetry.run_label == "overload/seed7/protected/x2"


def test_overload_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["overload"]
    assert "repro.overload" in experiment.modules
    assert experiment.bench == "tests/test_overload_scenario.py"


def test_result_to_dict_is_json_ready(sweep):
    import json

    payload = json.dumps(sweep)
    assert json.loads(payload)["capacity_rps"] == sweep["capacity_rps"]
