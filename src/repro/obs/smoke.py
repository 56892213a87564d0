"""The obs scenario: every observability layer on one micro run.

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
ids and event ``seq`` numbers restart with the run).  ``python -m
repro run obs`` (:func:`gate`) writes them; CI runs the gate in two
fresh processes and ``diff -r`` the trees.  Host-dependent numbers
(wall seconds per stack) go to ``profile_meta.json``, which is never
diffed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.causal import CausalTracer, instrument_causal
from repro.obs.profiler import ProfiledLoop, write_profile
from repro.obs.slo import Objective, write_slo

__all__ = [
    "ObsScenarioResult",
    "run_obs_scenario",
    "obs_slo_objectives",
    "write_obs_artifacts",
    "gate",
]

#: Event kinds that belong to the causal/SLO plane and land in
#: ``trace.jsonl`` (the rest of the event log stays in the telemetry
#: artifact).
TRACE_EVENT_KINDS = ("cspan", "bspan", "slo")


#: Fault-free targets: completed / issued; client p99 ceiling (seconds).
GOODPUT_FLOOR = 0.98
P99_CEILING = 1.0


def obs_slo_objectives(required_anonymity: float) -> List[Objective]:
    """The micro run's objectives: fault-free, so targets are strict.

    The anonymity floor here is hard and windowed: while load is
    offered every released batch must be full (timer flushes only
    happen at the drain tail, after the source stops reporting).
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=GOODPUT_FLOOR,
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
            target=P99_CEILING,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


@dataclass
class ObsScenarioResult:
    """Outcome of one obs micro run (self-check surface)."""

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
        return found + self.slo_report.problems()

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        from repro.experiments.rig import summarize

        summary = summarize(
            self, counted=("trace_exposures",), omit=("loop", "telemetry")
        )
        summary["slo_ok"] = None if self.slo_report is None else self.slo_report.ok
        return summary


def run_obs_scenario(
    seed: int = 7,
    rps: float = 80.0,
    duration: float = 4.0,
) -> ObsScenarioResult:
    """Run the micro deployment with the full observability stack armed."""
    # Imports are local so ``repro.obs`` stays importable on its own
    # (the package is also used by tools that never build a service).
    from repro.experiments.rig import DrillRig
    from repro.privacy.wire import trace_field_exposures
    from repro.proxy.config import PProxConfig
    from repro.simnet.clock import EventLoop

    loop = ProfiledLoop(EventLoop())
    rig = DrillRig("obs", seed, grace=2.0, loop=loop)
    hub = rig.telemetry
    tracer = CausalTracer(clock=lambda: loop.now, event_log=hub.event_log)
    tracer.attach_metrics(hub.registry)
    config = PProxConfig(
        ua_instances=2,
        ia_instances=2,
        shuffle_size=4,
        shuffle_timeout=0.25,
        balancing="round-robin",
    )
    rig.deploy(
        config,
        request_timeout=0.5,
        max_retries=2,
        backoff_base=0.05,
        backoff_jitter=0.02,
        causal=tracer,
    )
    rig.service.runtime.causal = tracer
    adversary, _ = rig.observe_wire()
    rig.instrument()
    # After the stack's instruments: batch spans chain behind the
    # telemetry flush hook, exactly like the rig's flush log.
    instrument_causal(tracer, rig.service)
    rig.offer(rps, duration, users=60)

    rig.watch({
        "anonymity_floor": lambda: rig.anonymity_floor(rig.offered_window(layer="UA")),
    })
    rig.run()

    result = ObsScenarioResult(
        seed=seed,
        link=tracer.link_report(),
        severed_cleanly=tracer.severed_cleanly(),
        trace_exposures=trace_field_exposures(adversary.observations),
        loop=loop,
        telemetry=hub,
        **rig.counters_for(ObsScenarioResult),
    )
    result.slo_report = rig.finish(
        result.to_dict(), obs_slo_objectives(float(config.shuffle_size * config.ia_instances))
    )
    return result


def write_obs_artifacts(result: ObsScenarioResult, out_dir: str) -> Dict[str, str]:
    """Write the run's artifact set; returns basename -> path.

    ``trace.jsonl`` holds only the causal/SLO plane (``cspan`` /
    ``bspan`` / ``slo`` events).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = write_profile(result.loop, out_dir)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    with open(trace_path, "w") as fh:
        for event in result.telemetry.event_log.events:
            if event.kind in TRACE_EVENT_KINDS:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return {
        "profile.json": paths["profile"],
        "profile.folded": paths["folded"],
        "profile_meta.json": paths["meta"],
        "trace.jsonl": trace_path,
        "slo.json": write_slo(result.slo_report, out_dir),
    }


def gate(out_dir: str) -> List[str]:
    """``repro run obs``: the micro scenario's artifacts, its severing
    checks and its SLO verdict."""
    result = run_obs_scenario()
    write_obs_artifacts(result, out_dir)
    print(
        f"obs scenario: issued={result.issued} completed={result.completed}"
        f" attempts_stamped={result.link['attempts_stamped']}"
        f" severed={result.link['traces_severed']}"
        f" batch_spans={result.link['batch_spans']}"
    )
    return result.problems()
