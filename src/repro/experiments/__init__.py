"""Experiment runners and figure reproduction harness."""

from repro.experiments.figures import (
    MICRO_RPS_GRID,
    SCALING_RPS_GRID,
    FigureData,
    FigurePoint,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from repro.experiments.rig import DrillRig
from repro.experiments.chaos import ChaosResult, run_chaos
from repro.experiments.overload import (
    LoadPoint,
    OverloadResult,
    overload_cost_model,
    run_overload,
)
from repro.experiments.rotation import (
    RotationResult,
    default_rotation_plan,
    run_rotation,
)
from repro.experiments.fleet import FleetDrillResult, run_fleet_drill
from repro.experiments.capacity import (
    CapacityPlan,
    CapacityPointResult,
    CapacityTarget,
    run_capacity,
    solve_plan,
    verify_plan,
)
from repro.experiments.runner import RunResult, run_baseline, run_full, run_micro
from repro.experiments.report import (
    render_figure,
    render_medians,
    render_table2,
    render_table3,
    render_telemetry,
)

__all__ = [
    "FigureData",
    "FigurePoint",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "MICRO_RPS_GRID",
    "SCALING_RPS_GRID",
    "RunResult",
    "DrillRig",
    "ChaosResult",
    "run_chaos",
    "LoadPoint",
    "OverloadResult",
    "overload_cost_model",
    "run_overload",
    "RotationResult",
    "default_rotation_plan",
    "run_rotation",
    "FleetDrillResult",
    "run_fleet_drill",
    "CapacityPlan",
    "CapacityPointResult",
    "CapacityTarget",
    "run_capacity",
    "solve_plan",
    "verify_plan",
    "run_micro",
    "run_baseline",
    "run_full",
    "render_figure",
    "render_medians",
    "render_table2",
    "render_table3",
    "render_telemetry",
]
