"""The obs scenario: every observability layer on one micro run.

A short fault-free deployment (2 UA + 2 IA, S=4) runs with the full
observability stack armed at once:

* a :class:`~repro.obs.profiler.ProfiledLoop` wraps the event loop, so
  the run yields a deterministic virtual-time profile + flamegraph;
* the telemetry hub's tracer (:class:`~repro.obs.causal.CausalTracer`)
  stamps every client attempt with a fixed-width ``trace`` field that
  the UA front door severs at the shuffle boundary (client spans and
  aggregate-only batch spans land in the event log);
* a wiretapping :class:`~repro.privacy.adversary.Adversary` records
  every hop, and :func:`~repro.privacy.wire.trace_field_exposures`
  proves no trace id survived past the client->UA hop;
* an :class:`~repro.obs.slo.SloEngine` samples goodput, the anonymity
  floor and p99 latency on the virtual clock and renders ``slo.json``.

Everything the run emits into ``profile.json`` / ``profile.folded`` /
``trace.jsonl`` / ``slo.json`` is a function of the seed alone (trace
ids and event ``seq`` numbers restart with the run).  ``trace.jsonl``
is streamed as the run emits its records; ``python -m repro run obs``
(:func:`gate`) writes the rest after it; CI runs the gate in two
fresh processes and ``diff -r`` the trees.  Host-dependent numbers
(wall seconds per stack) go to ``profile_meta.json``, which is never
diffed.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import Any, Dict, List, Optional

from repro.obs.profiler import ProfiledLoop, profile_snapshot, write_profile
from repro.obs.slo import Objective, run_end_objectives, write_slo

__all__ = [
    "run_obs_scenario",
    "obs_slo_objectives",
    "write_obs_artifacts",
    "gate",
]

#: Event kinds that belong to the causal/SLO plane and land in
#: ``trace.jsonl`` (the rest of the event log is only counted).
TRACE_EVENT_KINDS = ("cspan", "bspan", "slo")

#: Causal stacks the gate prints, by call count.
TOP_STACKS = 12


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
    out_dir: Optional[str] = None,
) -> Any:
    """Run the micro deployment with the full observability stack armed;
    returns the finished :class:`~repro.experiments.rig.DrillRig` (its
    profiled ``loop``, its ``telemetry``, ``summary`` and ``verdict``).
    Given *out_dir*, the run streams its ``cspan`` / ``bspan`` / ``slo``
    records to ``trace.jsonl`` there."""
    # Imports are local so ``repro.obs`` stays importable on its own
    # (the package is also used by tools that never build a service).
    from repro.experiments.rig import DrillRig
    from repro.privacy.wire import trace_field_exposures
    from repro.proxy.config import PProxConfig
    from repro.simnet.clock import EventLoop

    loop = ProfiledLoop(EventLoop())
    rig = DrillRig("obs", seed, grace=2.0, loop=loop)
    hub = rig.telemetry
    with ExitStack() as files:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            trace = files.enter_context(
                open(os.path.join(out_dir, "trace.jsonl"), "w", encoding="utf-8")
            )
            hub.stream_to(trace, kinds=TRACE_EVENT_KINDS)
        tracer = hub.tracer
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
        # The stack's instruments chain the tracer's batch spans onto the
        # UA shuffle buffers, behind the flush histogram.
        rig.instrument()
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
    """Write the rest of the run's artifact set beside the
    ``trace.jsonl`` that :func:`run_obs_scenario` streamed into
    *out_dir*; returns basename -> path."""
    paths = write_profile(rig.loop, out_dir)
    return {
        "profile.json": paths["profile"],
        "profile.folded": paths["folded"],
        "profile_meta.json": paths["meta"],
        "trace.jsonl": os.path.join(out_dir, "trace.jsonl"),
        "slo.json": write_slo(rig.verdict, out_dir),
    }


def gate(out_dir: str) -> List[str]:
    """``repro run obs``: the micro scenario's artifacts and its SLO
    verdict, severing checks included."""
    rig = run_obs_scenario(out_dir=out_dir)
    write_obs_artifacts(rig, out_dir)
    summary = rig.summary
    print(
        f"obs scenario: issued={summary['issued']} completed={summary['completed']}"
        f" attempts_stamped={summary['link']['attempts_stamped']}"
        f" severed={summary['link']['traces_severed']}"
        f" batch_spans={summary['link']['batch_spans']}"
    )
    snapshot = profile_snapshot(rig.loop)
    print(
        f"profiled {snapshot['events_processed']} events over"
        f" {snapshot['final_virtual_time']:.2f} virtual seconds"
    )
    ranked = sorted(snapshot["sites"].items(), key=lambda kv: kv[1]["calls"], reverse=True)
    print(f"top {min(TOP_STACKS, len(ranked))} causal stacks by calls:")
    for key, record in ranked[:TOP_STACKS]:
        print(
            f"  {record['calls']:8d} calls"
            f" {record['virtual_delay_seconds']:10.4f}s vdelay  {key}"
        )
    return rig.verdict.problems()
