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
from repro.experiments.chaos import run_chaos
from repro.experiments.overload import overload_cost_model, run_overload
from repro.experiments.rotation import default_rotation_plan, run_rotation
from repro.experiments.fleet import run_fleet_drill
from repro.experiments.capacity import (
    CapacityPlan,
    CapacityTarget,
    run_capacity,
    solve_plan,
    verify_plan,
)
from repro.experiments.runner import RunResult, run_baseline, run_full, run_micro
from repro.experiments.report import (
    render_figure,
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
    "run_chaos",
    "overload_cost_model",
    "run_overload",
    "default_rotation_plan",
    "run_rotation",
    "run_fleet_drill",
    "CapacityPlan",
    "CapacityTarget",
    "run_capacity",
    "solve_plan",
    "verify_plan",
    "run_micro",
    "run_baseline",
    "run_full",
    "render_figure",
    "render_table2",
    "render_table3",
    "render_telemetry",
]
