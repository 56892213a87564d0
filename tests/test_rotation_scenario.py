"""The live re-key drill: zero downtime, floor intact, linkage-free."""

from __future__ import annotations

import pytest

from repro.experiments.registry import EXPERIMENT_INDEX
from repro.experiments.rotation import run_rotation
from tests.conftest import objective
from tests.test_lrs_store import interned_names, named_in


@pytest.fixture(scope="module")
def rig():
    """One shared drill at the defaults (the scenario is deterministic)."""
    return run_rotation(seed=11)


@pytest.fixture(scope="module")
def drill(rig):
    """The drill's run-end summary."""
    return rig.summary


def test_drill_passes_all_acceptance_checks(rig):
    assert rig.verdict.problems() == []
    assert rig.verdict.ok


def test_the_run_carries_its_own_slo_verdict(rig):
    """No engine is handed in: the drill is judged by the run itself."""
    assert rig.verdict.ok
    assert objective(rig.verdict, "anonymity_floor").ok


def test_rotation_completed_with_zero_aborted_calls(drill):
    assert drill["rotation_completed"]
    assert drill["final_state"] == "retired"
    assert (drill["old_epoch"], drill["new_epoch"]) == (0, 1)
    assert drill["issued"] > 0
    assert drill["failed"] == 0
    assert drill["completed"] == drill["issued"]
    assert drill["outcomes"]["failed"] == 0
    # Zero downtime is resilience, not luck: the client hedged its way
    # across the crash and the partition before any timeout could fire.
    assert drill["hedges_launched"] > 0
    assert drill["outcomes"].get("hedged", 0) > 0


def test_crash_paused_the_drill_and_recovery_resumed_it(drill):
    assert drill["crashes_injected"] > 0
    assert drill["restarts_completed"] == drill["crashes_injected"]
    assert drill["readmissions"] >= drill["crashes_injected"]
    assert drill["partition_drops"] > 0
    assert drill["pauses"] > 0
    assert drill["pause_reasons"].get("instance_down", 0) > 0
    # ...and yet it retired: paused is a state, never an abort.
    assert drill["rotation_completed"]


def test_dual_epoch_window_did_real_work(drill):
    # Stale clients kept sending under the outgoing keys after the
    # announce; the UA accepted them via trial decryption...
    assert drill["previous_epoch_decrypts"] > 0
    # ...while refreshed clients tagged their epoch on the first hop...
    assert drill["epoch_tags_seen"] > 0
    assert drill["epoch_bumps"] > 0
    # ...and the background pass translated the whole old prefix.
    assert drill["rekey_events_processed"] > 0
    assert drill["rekey_users_rekeyed"] > 0
    assert drill["translate_cache_hits"] > 0
    assert drill["window_seconds"] > 0.0


def test_the_store_keeps_no_pseudonym_the_rekey_moved_away_from(rig):
    """After the pass the LRS data (intern table included) holds the
    new epoch's pseudonyms only: nothing pairs an old one with its
    successor for an adversary who kept the old key."""
    store = rig.lrs.engine.store
    assert interned_names(store) == named_in(store.dump())


def test_anonymity_floor_holds_at_every_observable_instant(drill):
    assert drill["window_flushes"] > 0
    assert drill["min_window_flush"] is not None
    assert drill["min_window_flush"] >= drill["shuffle_size"]
    assert drill["effective_anonymity_floor"] >= drill["required_anonymity"]


def test_no_wire_identifier_links_across_epochs(drill):
    # The adversary saw plenty of pseudonyms on the inner hops on both
    # sides of the window, and the two populations are disjoint.
    assert drill["pre_announce_pseudonyms"] > 0
    assert drill["post_retire_pseudonyms"] > 0
    assert drill["cross_epoch_user_overlap"] == 0
    # The epoch tag itself never travelled past the client->UA hop.
    assert drill["tag_exposure_count"] == 0


def test_redaction_audit_clean(drill):
    assert drill["audit_violations"] == 0


def test_rotation_events_cover_the_full_lifecycle(rig):
    names = [event["event"] for event in rig.events("rotation")]
    for expected in (
        "epoch_announced",
        "rotation_paused",
        "rotation_resumed",
        "rekey_cutover",
        "epoch_retired",
    ):
        assert expected in names, f"missing rotation event {expected!r}"
    # Announce strictly precedes retire precedes nothing further.
    assert names.index("epoch_announced") < names.index("epoch_retired")
    assert names[-1] == "epoch_retired"


def test_same_seed_runs_are_identical(rig):
    again = run_rotation(seed=11)
    assert again.events("rotation") == rig.events("rotation")
    assert again.summary == rig.summary


def test_different_seed_runs_differ(rig):
    other = run_rotation(seed=23)
    assert other.summary != rig.summary


def test_telemetry_artifact_records_the_drill(rig, tmp_path):
    rig.telemetry.write_artifact(str(tmp_path))
    content = (tmp_path / "telemetry.jsonl").read_text(encoding="utf-8")
    assert '"epoch_announced"' in content
    assert '"epoch_retired"' in content
    assert rig.events("rotation")  # the same events, structured
    prom = (tmp_path / "telemetry.prom").read_text(encoding="utf-8")
    assert "pprox_rotation_state" in prom
    assert "pprox_rekey_progress_ratio" in prom


def test_rotation_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["rotation"]
    assert "repro.proxy.epochs" in experiment.modules
    assert experiment.bench == "tests/test_rotation_scenario.py"


def test_result_to_dict_is_json_ready(drill):
    import json

    payload = json.dumps(drill)
    assert json.loads(payload)["min_window_flush"] == drill["min_window_flush"]
