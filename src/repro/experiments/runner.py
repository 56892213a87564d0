"""Experiment runners: one function per benchmark family.

Each runner assembles a fresh simulated deployment from a named
configuration, drives the paper's workload against it, and returns
latency distributions measured with the paper's methodology
(aggregation over repeated runs, 15 s-style trimming, saturation
cut-off).  Runners are deterministic in (config, rps, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.client.library import DirectClient
from repro.cluster.deployments import MacroConfig, MicroConfig
from repro.context import Deployment, SimContext
from repro.experiments.rig import pseudonymise_stub, stub_lrs
from repro.lrs.engine import HarnessEngine
from repro.lrs.service import HarnessService
from repro.proxy.config import PProxConfig
from repro.simnet.metrics import CandlestickSummary, LatencyRecorder, trim_window
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import InjectionReport, Injector
from repro.workload.movielens import SyntheticMovieLens
from repro.workload.scenario import ScenarioTimings, TwoPhaseScenario, is_saturated

__all__ = ["RunResult", "run_micro", "run_baseline", "run_full"]

#: Number of repetitions aggregated per (configuration, RPS) pair.
#: The paper uses 6; the default here trades a little smoothing for
#: benchmark wall-clock time.
DEFAULT_RUNS = 2

#: Users the micro-benchmark's gets and posts draw from.
MICRO_USERS = 500


@dataclass
class RunResult:
    """Aggregated outcome of one (configuration, RPS) measurement."""

    config_name: str
    rps: float
    recorder: LatencyRecorder
    window_latencies: List[float] = field(default_factory=list)
    reports: List[InjectionReport] = field(default_factory=list)
    saturated: bool = False

    def summary(self) -> CandlestickSummary:
        """Candlestick over the trimmed, aggregated samples."""
        return self.recorder.summarize(self.window_latencies)

def run_micro(
    config: MicroConfig,
    rps: float,
    seed: int = 1,
    runs: int = DEFAULT_RUNS,
    duration: float = 30.0,
    trim: float = 8.0,
    shuffle_timeout: float = 0.25,
    pprox_override: Optional[PProxConfig] = None,
    verb: str = "get",
    telemetry: Optional[Telemetry] = None,
) -> RunResult:
    """Micro-benchmark: PProx in front of the nginx stub (§8.1).

    Injects only ``get`` requests — "we focus on reporting the
    performance of get requests, as these are the costlier in terms of
    encryption and payload".  *pprox_override* substitutes an explicit
    proxy configuration (ablations of knobs Table 2 does not vary).

    Pass a :class:`~repro.telemetry.Telemetry` hub to collect per-stage
    totals, batch spans, metrics and the structured event log across all
    runs (one bound run label per repetition); no other runner takes one.
    """
    result = RunResult(config_name=config.name, rps=rps, recorder=LatencyRecorder("micro"))
    for run_index in range(runs):
        ctx = SimContext.fresh(seed * 1000 + run_index, telemetry=telemetry)
        loop, network, rng = ctx.loop, ctx.network, ctx.rng
        if telemetry is not None:
            telemetry.bind(loop, run_label=f"{config.name}@{rps:g}rps/run{run_index}")
        stub = stub_lrs(ctx)
        pprox_config = pprox_override or config.pprox_config(shuffle_timeout)
        deployment = Deployment.build(
            ctx=ctx, config=pprox_config, lrs_picker=lambda: stub
        )
        service, crypto = deployment.service, ctx.resolved_provider()
        pseudonymise_stub(stub, deployment)
        client = deployment.client()
        injector = Injector(loop, rng.stream("injector"), recorder=LatencyRecorder("gets"))
        if telemetry is not None:
            instrument_stack(
                telemetry,
                service=service,
                provider=crypto,
                lrs=stub,
                injector=injector,
                network=network,
            )
        users = [f"user-{index}" for index in range(MICRO_USERS)]
        user_rng = rng.stream("users")

        if verb == "get":
            def issue(on_complete) -> None:
                client.get(user_rng.choice(users), on_complete=on_complete)
        elif verb == "post":
            def issue(on_complete) -> None:
                client.post(user_rng.choice(users), f"item-{user_rng.randrange(200)}",
                            on_complete=on_complete)
        else:
            raise ValueError(f"unknown verb {verb!r}; expected 'get' or 'post'")

        start, end = injector.inject(rps, duration, issue)
        loop.run()
        loop.run_until(end + 5.0)
        loop.run()

        window = trim_window(start, end, trim)
        result.recorder.extend(injector.recorder)
        result.window_latencies.extend(injector.recorder.trimmed(*window))
        result.reports.append(injector.report)
        if telemetry is not None:
            telemetry.finalize_run(
                extra={"config": config.name, "rps": rps, "run_index": run_index}
            )

    result.saturated = is_saturated(result.reports, result.window_latencies)
    return result


def _build_macro_stack(config: MacroConfig, ctx: SimContext):
    """Assemble Harness (+ optional PProx) and the matching client on *ctx*."""
    harness = HarnessService(
        loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=config.frontends,
        engine=HarnessEngine(),
    )
    if config.with_proxy:
        deployment = Deployment.build(
            ctx=ctx,
            config=config.pprox_config(),
            lrs_picker=harness.pick_frontend,
        )
        client = deployment.client()
    else:
        client = DirectClient(loop=ctx.loop, network=ctx.network, lrs_picker=harness.pick_frontend)
    return harness, client


def _run_macro(
    config: MacroConfig,
    rps: float,
    seed: int,
    runs: int,
    timings: ScenarioTimings,
    workload_scale: float,
) -> RunResult:
    result = RunResult(config_name=config.name, rps=rps, recorder=LatencyRecorder("macro"))
    for run_index in range(runs):
        ctx = SimContext.fresh(seed * 1000 + run_index)
        loop, rng = ctx.loop, ctx.rng
        harness, client = _build_macro_stack(config, ctx)
        workload = SyntheticMovieLens(seed=seed, scale=workload_scale)
        scenario = TwoPhaseScenario(
            loop=loop,
            rng=rng.stream("scenario"),
            client=client,
            lrs=harness,
            workload=workload,
            timings=timings,
        )
        outcome = scenario.run(query_rate=rps)
        result.recorder.extend(outcome.recorder)
        result.window_latencies.extend(outcome.trimmed_latencies())
        result.reports.append(outcome.report)
    result.saturated = is_saturated(result.reports, result.window_latencies)
    return result


def run_baseline(
    config: MacroConfig,
    rps: float,
    seed: int = 1,
    runs: int = DEFAULT_RUNS,
    timings: Optional[ScenarioTimings] = None,
    workload_scale: float = 0.01,
) -> RunResult:
    """Macro baseline: unprotected Harness (Figure 9)."""
    if config.with_proxy:
        raise ValueError(f"{config.name} is not a baseline configuration")
    return _run_macro(config, rps, seed, runs, timings or ScenarioTimings(), workload_scale)


def run_full(
    config: MacroConfig,
    rps: float,
    seed: int = 1,
    runs: int = DEFAULT_RUNS,
    timings: Optional[ScenarioTimings] = None,
    workload_scale: float = 0.01,
) -> RunResult:
    """Full system: PProx + Harness (Figure 10)."""
    if not config.with_proxy:
        raise ValueError(f"{config.name} is not a full-system configuration")
    return _run_macro(config, rps, seed, runs, timings or ScenarioTimings(), workload_scale)
