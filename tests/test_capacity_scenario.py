"""Capacity planning: the solver's shapes and their simulated proof."""

from __future__ import annotations

import json

import pytest

from repro.experiments.capacity import (
    DEFAULT_TARGETS,
    MEASURED_PER_PAIR_RPS,
    SHUFFLE_SIZE_LADDER,
    CapacityTarget,
    capacity_chaos_spec,
    capacity_slo_objectives,
    degraded_p99_ceiling,
    run_capacity,
    solve_plan,
    verify_plan,
    write_artifacts,
)
from repro.experiments.registry import EXPERIMENT_INDEX


# -- solver (pure) ---------------------------------------------------------


def test_solver_shapes_for_the_default_targets():
    shapes = [solve_plan(target) for target in DEFAULT_TARGETS]
    assert [plan.shards for plan in shapes] == [1, 2, 3]
    assert all(plan.instances_per_shard == 2 for plan in shapes)
    assert all(plan.pairs == plan.shards * 2 for plan in shapes)


def test_solver_shards_grow_monotonically_with_rps():
    shards = [
        solve_plan(CapacityTarget(rps=rps, p99_slo=0.5)).shards
        for rps in (100, 250, 500, 750, 1000, 2000)
    ]
    assert shards == sorted(shards)
    assert shards[0] >= 1


def test_solver_shuffle_size_fits_the_fill_budget():
    for target in DEFAULT_TARGETS + (
        CapacityTarget(rps=50.0, p99_slo=0.3),
        CapacityTarget(rps=3000.0, p99_slo=1.0),
    ):
        plan = solve_plan(target)
        assert plan.shuffle_size in SHUFFLE_SIZE_LADDER
        per_instance = target.rps / plan.pairs
        fill_time = plan.shuffle_size / per_instance
        # Either the fill time fits the budget or the solver already
        # bottomed out at the smallest ladder step.
        assert (
            fill_time <= 0.3 * target.p99_slo
            or plan.shuffle_size == min(SHUFFLE_SIZE_LADDER)
        )
        # The timeout is a liveness bound, not the normal release path:
        # above the fill time, but inside the latency budget.
        assert plan.shuffle_timeout <= 0.6 * target.p99_slo
        assert plan.anonymity_bound == plan.shuffle_size * plan.instances_per_shard


def test_solver_rejects_nonpositive_rps():
    with pytest.raises(ValueError, match="positive"):
        solve_plan(CapacityTarget(rps=0.0, p99_slo=0.5))


def test_degraded_ceiling_and_objectives():
    target = DEFAULT_TARGETS[0]
    plan = solve_plan(target)
    spec = capacity_chaos_spec(8.0)
    ceiling = degraded_p99_ceiling(target, spec)
    assert ceiling > target.p99_slo
    chaos = capacity_slo_objectives(target, plan, chaos=True, spec=spec)
    clean = capacity_slo_objectives(target, plan, chaos=False)
    assert [o.name for o in clean] == [
        "goodput", "released_flush_floor", "p99_latency_seconds",
    ]
    # The chaos leg must also prove it crashed something.
    assert [o.name for o in chaos] == [o.name for o in clean] + ["crashes_injected"]
    assert clean[2].target == target.p99_slo
    assert chaos[2].target == ceiling
    assert chaos[1].value == "min_steady_flush"
    assert clean[1].value == "min_released_flush"


# -- one verified point (clean + chaos legs) -------------------------------


@pytest.fixture(scope="module")
def single_point():
    """run_capacity over the cheapest default target only."""
    return run_capacity(targets=(DEFAULT_TARGETS[0],), seed=11, duration=8.0)


def leg(rigs, mode):
    return next(rig for rig in rigs if rig.summary["mode"] == mode)


def test_clean_leg_meets_the_steady_state_slo(single_point):
    _, _, rigs = single_point
    clean = leg(rigs, "clean")
    assert clean.verdict.problems() == []
    assert clean.verdict.ok
    summary = clean.summary
    assert summary["goodput"] >= 0.99
    assert summary["p99_latency_seconds"] <= summary["target"]["p99_slo"]
    assert summary["min_released_flush"] >= summary["plan"]["shuffle_size"]


def test_chaos_leg_degrades_gracefully(single_point):
    _, _, rigs = single_point
    chaos = leg(rigs, "chaos")
    assert chaos.verdict.problems() == []
    assert chaos.verdict.ok
    summary = chaos.summary
    assert summary["goodput"] >= 0.9
    assert summary["crashes_injected"] > 0
    assert summary["restarts_completed"] == summary["crashes_injected"]
    # The floor is judged on flushes outside network-interruption
    # windows; interrupted timer flushes are reported, never hidden.
    assert summary["min_steady_flush"] >= summary["plan"]["shuffle_size"]
    spec = capacity_chaos_spec(8.0)
    assert summary["p99_latency_seconds"] <= degraded_p99_ceiling(DEFAULT_TARGETS[0], spec)


def test_artifact_shape_and_roundtrip(single_point, tmp_path):
    artifact, meta, rigs = single_point
    assert artifact["experiment"] == "capacity"
    assert artifact["ok"] is True
    assert artifact["per_pair_rps"] == MEASURED_PER_PAIR_RPS
    (point,) = artifact["points"]
    assert set(point) == {"target", "plan", "clean", "chaos"}
    assert point["clean"]["slo"]["ok"] and point["chaos"]["slo"]["ok"]
    # Each leg's entry is its rig's summary (the point label is the
    # entry's) plus its verdict, named after the leg.
    for rig in rigs:
        mode = rig.summary["mode"]
        assert point[mode] == {
            **{k: v for k, v in rig.summary.items() if k != "point"},
            "slo": rig.verdict.to_dict(),
        }
        assert point[mode]["slo"]["experiment"] == f"capacity/{rig.summary['point']}/{mode}"
    artifact_path, meta_path = write_artifacts(artifact, meta, str(tmp_path))
    body = (tmp_path / "capacity.json").read_text(encoding="utf-8")
    assert body.endswith("\n")
    assert json.loads(body) == artifact
    assert "wall_seconds" in json.loads(
        (tmp_path / "capacity_meta.json").read_text(encoding="utf-8")
    )["points"][0]


def test_verification_is_deterministic_for_a_fixed_seed(single_point):
    _, _, rigs = single_point
    chaos = leg(rigs, "chaos")
    target = DEFAULT_TARGETS[0]
    again = verify_plan(target, solve_plan(target), seed=11, duration=8.0, chaos=True)
    assert again.summary == chaos.summary
    assert again.verdict.to_dict() == chaos.verdict.to_dict()


def test_capacity_is_registered_experiment():
    experiment = EXPERIMENT_INDEX["capacity"]
    assert "repro.experiments.capacity" in experiment.modules
    assert experiment.bench == "tests/test_capacity_scenario.py"
