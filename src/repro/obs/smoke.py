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
from typing import Any, Dict, List

from repro.obs.causal import CausalTracer, instrument_causal
from repro.obs.profiler import ProfiledLoop, write_profile
from repro.obs.slo import Objective, run_end_objectives, write_slo

__all__ = [
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
    """The micro run's objectives — its whole verdict: fault-free, so
    targets are strict.

    The anonymity floor here is hard and windowed: while load is
    offered every released batch must be full (timer flushes only
    happen at the drain tail, after the source stops reporting).  The
    run-end checks hold the severing rule: every stamped attempt was
    severed at the shuffle, batch spans were emitted, and no trace id
    or identifier leaked.
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
    ] + run_end_objectives(
        ("failed", "equal", 0, "No client call failed on a fault-free run."),
        ("severed_cleanly", "equal", 1, "Every attempt stamped with a trace id was severed."),
        ("batch_spans", "at_least", 1, "A batch span was emitted at a shuffle flush."),
        ("trace_exposure_count", "equal", 0, "No trace id was visible beyond client->ua."),
        ("audit_violations", "equal", 0, "The redaction audit found no leak."),
    )


def run_obs_scenario(
    seed: int = 7,
    rps: float = 80.0,
    duration: float = 4.0,
) -> Any:
    """Run the micro deployment with the full observability stack armed;
    returns the finished :class:`~repro.experiments.rig.DrillRig` (its
    profiled ``loop``, its ``telemetry``, ``summary`` and ``verdict``)."""
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

    link = tracer.link_report()
    summary = {
        "seed": seed,
        **rig.counters_for("issued", "completed", "failed", "audit_violations"),
        "link": link,
        "severed_cleanly": tracer.severed_cleanly(),
        "trace_exposure_count": len(trace_field_exposures(adversary.observations)),
    }
    rig.finish(
        summary,
        obs_slo_objectives(float(config.shuffle_size * config.ia_instances)),
        {"batch_spans": link.get("batch_spans", 0)},
    )
    return rig


def write_obs_artifacts(rig: Any, out_dir: str) -> Dict[str, str]:
    """Write the run's artifact set; returns basename -> path.

    ``trace.jsonl`` holds only the causal/SLO plane (``cspan`` /
    ``bspan`` / ``slo`` events).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = write_profile(rig.loop, out_dir)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    with open(trace_path, "w") as fh:
        for event in rig.telemetry.event_log.events:
            if event.kind in TRACE_EVENT_KINDS:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return {
        "profile.json": paths["profile"],
        "profile.folded": paths["folded"],
        "profile_meta.json": paths["meta"],
        "trace.jsonl": trace_path,
        "slo.json": write_slo(rig.verdict, out_dir),
    }


def gate(out_dir: str) -> List[str]:
    """``repro run obs``: the micro scenario's artifacts and its SLO
    verdict, severing checks included."""
    rig = run_obs_scenario()
    write_obs_artifacts(rig, out_dir)
    summary = rig.summary
    print(
        f"obs scenario: issued={summary['issued']} completed={summary['completed']}"
        f" attempts_stamped={summary['link']['attempts_stamped']}"
        f" severed={summary['link']['traces_severed']}"
        f" batch_spans={summary['link']['batch_spans']}"
    )
    return rig.verdict.problems()
