"""The obs-smoke scenario: every observability layer on one micro run.

A short fault-free deployment (2 UA + 2 IA, S=4) runs with the full
observability stack armed at once:

* a :class:`~repro.obs.profiler.ProfiledLoop` wraps the event loop, so
  the run yields a deterministic virtual-time profile + flamegraph;
* a :class:`~repro.obs.causal.CausalTracer` stamps every client
  attempt with a fixed-width ``trace`` field that the UA front door
  severs at the shuffle boundary (client spans and aggregate-only
  batch spans land in the event log);
* a wiretapping :class:`~repro.privacy.adversary.Adversary` records
  every hop, and :func:`~repro.privacy.wire.trace_field_exposures`
  proves no trace id survived past the client->UA hop;
* an :class:`~repro.obs.slo.SloEngine` samples goodput, the anonymity
  floor and p99 latency on the virtual clock and renders ``slo.json``.

Everything the run emits into ``profile.json`` / ``profile.folded`` /
``trace.jsonl`` / ``slo.json`` is a function of the seed alone (trace
ids and event ``seq`` numbers restart with the run), so two same-seed
passes — even in one process — produce byte-identical artifacts;
:func:`diff_artifact_dirs` is the check CI and ``python -m repro
obs-smoke`` both use.  Host-dependent numbers (wall seconds per stack)
go to ``profile_meta.json``, which is never diffed.
"""

from __future__ import annotations

import filecmp
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.causal import CausalTracer, instrument_causal
from repro.obs.profiler import ProfiledLoop, write_profile
from repro.obs.slo import Objective, SloEngine, histogram_quantile, write_slo

__all__ = [
    "ObsScenarioResult",
    "run_obs_scenario",
    "obs_slo_objectives",
    "write_obs_artifacts",
    "diff_artifact_dirs",
    "DETERMINISTIC_ARTIFACTS",
]

#: Artifact basenames that must be byte-identical across same-seed
#: passes (``profile_meta.json`` is deliberately absent: wall clock).
DETERMINISTIC_ARTIFACTS = (
    "profile.json",
    "profile.folded",
    "trace.jsonl",
    "slo.json",
)

#: Event kinds that belong to the causal/SLO plane and land in
#: ``trace.jsonl`` (the rest of the event log stays in the telemetry
#: artifact, whose request ids are process-global and not two-pass
#: diffable in one process).
TRACE_EVENT_KINDS = ("cspan", "bspan", "slo")


def obs_slo_objectives(
    required_anonymity: float,
    goodput_floor: float = 0.98,
    p99_ceiling: float = 1.0,
) -> List[Objective]:
    """The micro run's objectives: fault-free, so targets are strict.

    The anonymity floor here is hard and windowed: while load is
    offered every released batch must be full (timer flushes only
    happen at the drain tail, after the source stops reporting).
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=goodput_floor,
            good="completed",
            total="issued",
            description="Fraction of issued calls that completed OK.",
        ),
        Objective(
            name="anonymity_floor",
            kind="floor",
            target=required_anonymity,
            value="anonymity_floor",
            description="min shuffle flush x IA instances during the load window.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=p99_ceiling,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


@dataclass
class ObsScenarioResult:
    """Outcome of one obs-smoke micro run (self-check surface)."""

    seed: int
    issued: int = 0
    completed: int = 0
    failed: int = 0
    #: Tracer aggregates (see :meth:`CausalTracer.link_report`).
    link: Dict[str, int] = field(default_factory=dict)
    severed_cleanly: bool = False
    #: Wire-level findings: trace ids visible beyond client->ua.
    trace_exposures: List[str] = field(default_factory=list)
    #: Event-level findings from the role-aware redaction boundary.
    audit_violations: int = 0
    slo_report: Optional[Any] = None
    #: Live handles for artifact writing (not part of the summary).
    loop: Optional[Any] = None
    telemetry: Optional[Any] = None

    def problems(self) -> List[str]:
        found: List[str] = []
        if self.failed:
            found.append(f"{self.failed} client call(s) failed on a fault-free run")
        if not self.severed_cleanly:
            found.append(
                f"severing mismatch: {self.link.get('attempts_stamped', 0)} attempts"
                f" stamped but {self.link.get('traces_severed', 0)} severed"
            )
        if not self.link.get("batch_spans"):
            found.append("no batch span was ever emitted at a shuffle flush")
        if self.trace_exposures:
            found.append(
                f"trace id visible beyond client->ua: {self.trace_exposures[0]}"
            )
        if self.audit_violations:
            found.append(f"redaction audit found {self.audit_violations} leak(s)")
        if self.slo_report is not None and not self.slo_report.ok:
            found.extend(self.slo_report.problems())
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "link": dict(self.link),
            "severed_cleanly": self.severed_cleanly,
            "trace_exposure_count": len(self.trace_exposures),
            "audit_violations": self.audit_violations,
            "slo_ok": None if self.slo_report is None else self.slo_report.ok,
        }


def run_obs_scenario(
    seed: int = 7,
    rps: float = 80.0,
    duration: float = 4.0,
    *,
    grace: float = 2.0,
    telemetry: Optional[Any] = None,
) -> ObsScenarioResult:
    """Run the micro deployment with the full observability stack armed."""
    # Imports are local so ``repro.obs`` stays importable on its own
    # (the package is also used by tools that never build a service).
    from repro.context import Deployment, SimContext
    from repro.lrs.stub import StubLrs, make_pseudonymous_payload
    from repro.privacy.adversary import Adversary
    from repro.privacy.wire import trace_field_exposures
    from repro.proxy.config import PProxConfig
    from repro.simnet.clock import EventLoop
    from repro.simnet.metrics import LatencyRecorder
    from repro.telemetry import Telemetry, instrument_stack
    from repro.workload.injector import Injector

    hub = telemetry if telemetry is not None else Telemetry(scrape_interval=1.0)
    loop = ProfiledLoop(EventLoop())
    ctx = SimContext.fresh(seed, record_flows=True, telemetry=hub, loop=loop)
    hub.bind(ctx.loop, run_label=f"obs/seed{seed}")

    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    config = PProxConfig(
        ua_instances=2,
        ia_instances=2,
        shuffle_size=4,
        shuffle_timeout=0.25,
        balancing="round-robin",
    )
    deployment = Deployment.build(ctx=ctx, config=config, lrs_picker=lambda: stub)
    service = deployment.service
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            ctx.resolved_provider(), service.provisioner.layer_keys["IA"].symmetric_key
        )

    adversary = Adversary()
    adversary.attach(ctx.network)

    tracer = CausalTracer(clock=lambda: ctx.loop.now, event_log=hub.event_log)
    tracer.attach_metrics(hub.registry)
    service.runtime.causal = tracer

    client = deployment.client(
        request_timeout=0.5,
        max_retries=2,
        backoff_base=0.05,
        backoff_jitter=0.02,
        causal=tracer,
    )

    injector = Injector(
        loop=ctx.loop, rng=ctx.rng.stream("injector"),
        recorder=LatencyRecorder("obs"),
    )
    instrument_stack(
        hub,
        service=service,
        provider=ctx.resolved_provider(),
        lrs=stub,
        injector=injector,
        network=ctx.network,
        client=client,
    )
    # After instrument_stack: batch spans chain behind the telemetry
    # flush hook, exactly like the experiments' window samplers.
    instrument_causal(tracer, service)

    users = [f"user-{index}" for index in range(60)]
    user_rng = ctx.rng.stream("users")

    def issue(on_complete) -> None:
        client.get(user_rng.choice(users), on_complete=on_complete)

    start, end = injector.inject(rps, duration, issue)

    slo = SloEngine(telemetry=hub)
    ia_count = len(service.ia_instances)
    flushes: List[Any] = []
    for instance in service.ua_instances:
        buffer = instance.request_buffer
        if buffer is None:
            continue
        buffer.chain_on_flush(
            lambda size, timer_fired: flushes.append((ctx.loop.now, size))
        )
    latency_hist = hub.registry.histogram(
        "pprox_request_latency_seconds",
        "End-to-end client-observed request latency.",
    )

    def anonymity_floor_source() -> Optional[float]:
        during = [size for when, size in flushes if start <= when <= end]
        if not during:
            return None
        return float(min(during) * ia_count)

    slo.track("issued", lambda: injector.report.issued)
    slo.track("completed", lambda: injector.report.completed)
    slo.track("anonymity_floor", anonymity_floor_source)
    slo.track("p99_latency_seconds", lambda: histogram_quantile(latency_hist, 0.99))
    # Bounded at the drain horizon: the telemetry scraper also re-arms
    # while work is pending, and two unbounded tickers would keep each
    # other alive forever.
    slo.attach(ctx.loop, until=end + grace)

    ctx.loop.run_until(end + grace)
    ctx.loop.run()

    required = float(config.shuffle_size * ia_count)
    report = slo.evaluate(obs_slo_objectives(required), experiment="obs")
    result = ObsScenarioResult(
        seed=seed,
        issued=injector.report.issued,
        completed=injector.report.completed,
        failed=injector.report.failed,
        link=tracer.link_report(),
        severed_cleanly=tracer.severed_cleanly(),
        trace_exposures=trace_field_exposures(adversary.observations),
        audit_violations=len(hub.audit()),
        slo_report=report,
        loop=loop,
        telemetry=hub,
    )
    hub.finalize_run(extra={"scenario": "obs", **result.to_dict()})
    return result


def write_obs_artifacts(result: ObsScenarioResult, out_dir: str) -> Dict[str, str]:
    """Write the run's artifact set; returns basename -> path.

    ``trace.jsonl`` holds only the causal/SLO plane (``cspan`` /
    ``bspan`` / ``slo`` events) — its ids are run-local, so it is
    two-pass diffable even inside one process.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = write_profile(result.loop, out_dir)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    with open(trace_path, "w") as fh:
        for event in result.telemetry.event_log.events:
            if event.kind in TRACE_EVENT_KINDS:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    out = {
        "profile.json": paths["profile"],
        "profile.folded": paths["folded"],
        "profile_meta.json": paths["meta"],
        "trace.jsonl": trace_path,
    }
    if result.slo_report is not None:
        out["slo.json"] = write_slo(result.slo_report, out_dir)
    return out


def diff_artifact_dirs(
    dir_a: str,
    dir_b: str,
    names: Sequence[str] = DETERMINISTIC_ARTIFACTS,
) -> List[str]:
    """Byte-compare the deterministic artifacts; returns findings."""
    findings: List[str] = []
    for name in names:
        path_a = os.path.join(dir_a, name)
        path_b = os.path.join(dir_b, name)
        if not os.path.exists(path_a) or not os.path.exists(path_b):
            findings.append(f"{name}: missing from one of the passes")
            continue
        if not filecmp.cmp(path_a, path_b, shallow=False):
            findings.append(f"{name}: differs between same-seed passes")
    return findings
