"""Per-figure series builders: regenerate every evaluation figure.

Each ``figure*`` function sweeps the RPS grid the paper plots and
returns a :class:`FigureData` whose series mirror the corresponding
candlestick chart.  Figures 6-8 drive the stub LRS (micro);
Figures 9-10 drive Harness (macro).  Rendering to text tables lives
in :mod:`repro.experiments.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.deployments import MACRO_BASELINES, MACRO_FULL, MICRO_CONFIGS
from repro.experiments.runner import RunResult, run_baseline, run_full, run_micro
from repro.simnet.metrics import CandlestickSummary
from repro.workload.scenario import ScenarioTimings

__all__ = [
    "FigurePoint",
    "FigureData",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "MICRO_RPS_GRID",
    "SCALING_RPS_GRID",
]

#: The paper's fine grid for single-instance micro-benchmarks.
MICRO_RPS_GRID = [50, 100, 150, 200, 250]

#: The paper's coarse grid for scalability experiments.
SCALING_RPS_GRID = [50, 250, 500, 750, 1000]


@dataclass(frozen=True)
class FigurePoint:
    """One candlestick of a figure."""

    config_name: str
    rps: float
    summary: CandlestickSummary
    saturated: bool


@dataclass
class FigureData:
    """All series of one reproduced figure."""

    figure: str
    title: str
    series: Dict[str, List[FigurePoint]] = field(default_factory=dict)

    def add(self, result: RunResult) -> Optional[FigurePoint]:
        """Record *result*; saturated points are kept but flagged."""
        point = FigurePoint(
            config_name=result.config_name,
            rps=result.rps,
            summary=result.summary() if result.window_latencies else None,
            saturated=result.saturated,
        )
        self.series.setdefault(result.config_name, []).append(point)
        return point

    def point(self, config_name: str, rps: float) -> FigurePoint:
        """Lookup one candlestick."""
        for point in self.series.get(config_name, []):
            if point.rps == rps:
                return point
        raise KeyError(f"no point for {config_name} at {rps} RPS")

def figure6(seed: int = 1, runs: int = 2, duration: float = 30.0, trim: float = 8.0,
            rps_grid: Optional[List[int]] = None) -> FigureData:
    """Figure 6: cost of encryption, SGX, and item pseudonymization.

    Configurations m1 (nothing), m2 (+encryption), m3 (+SGX),
    m4 (encryption without item pseudonymization), all without
    shuffling, 50-250 RPS.
    """
    data = FigureData("fig6", "Privacy feature costs (stub LRS, no shuffling)")
    for name in ("m1", "m2", "m3", "m4"):
        for rps in rps_grid or MICRO_RPS_GRID:
            data.add(run_micro(MICRO_CONFIGS[name], rps, seed=seed, runs=runs,
                               duration=duration, trim=trim))
    return data


def figure7(seed: int = 1, runs: int = 2, duration: float = 30.0, trim: float = 8.0,
            rps_grid: Optional[List[int]] = None) -> FigureData:
    """Figure 7: impact of shuffling (m3: S off; m5: S=5; m6: S=10)."""
    data = FigureData("fig7", "Impact of request/response shuffling")
    for name in ("m3", "m5", "m6"):
        for rps in rps_grid or MICRO_RPS_GRID:
            data.add(run_micro(MICRO_CONFIGS[name], rps, seed=seed, runs=runs,
                               duration=duration, trim=trim))
    return data


def figure8(seed: int = 1, runs: int = 2, duration: float = 30.0, trim: float = 8.0,
            rps_grid: Optional[List[int]] = None) -> FigureData:
    """Figure 8: horizontal scaling of the proxy (m6-m9, S=10).

    Each configuration is swept up to its pre-saturation maximum from
    Table 2, as in the paper's plot.
    """
    data = FigureData("fig8", "PProx proxy service scaling")
    for name in ("m6", "m7", "m8", "m9"):
        config = MICRO_CONFIGS[name]
        for rps in rps_grid or SCALING_RPS_GRID:
            if rps > config.max_rps:
                continue
            data.add(run_micro(config, rps, seed=seed, runs=runs,
                               duration=duration, trim=trim))
    return data


def figure9(seed: int = 1, runs: int = 2, timings: Optional[ScenarioTimings] = None,
            rps_grid: Optional[List[int]] = None, workload_scale: float = 0.01) -> FigureData:
    """Figure 9: baseline performance of the Harness LRS (b1-b4)."""
    data = FigureData("fig9", "Harness baseline performance")
    for name in ("b1", "b2", "b3", "b4"):
        config = MACRO_BASELINES[name]
        for rps in rps_grid or SCALING_RPS_GRID:
            if rps > config.max_rps:
                continue
            data.add(run_baseline(config, rps, seed=seed, runs=runs,
                                  timings=timings, workload_scale=workload_scale))
    return data


def figure10(seed: int = 1, runs: int = 2, timings: Optional[ScenarioTimings] = None,
             rps_grid: Optional[List[int]] = None, workload_scale: float = 0.01) -> FigureData:
    """Figure 10: the full system, PProx + Harness (f1-f4)."""
    data = FigureData("fig10", "Full system: Harness with PProx")
    for name in ("f1", "f2", "f3", "f4"):
        config = MACRO_FULL[name]
        for rps in rps_grid or SCALING_RPS_GRID:
            if rps > config.max_rps:
                continue
            data.add(run_full(config, rps, seed=seed, runs=runs,
                              timings=timings, workload_scale=workload_scale))
    return data
