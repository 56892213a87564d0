"""Machine-readable experiment index (DESIGN.md §4, kept in sync).

Maps every reproduced artefact — each table, figure, and analysis of
the paper — to the modules that implement it, the bench that
regenerates it, and the paper's headline claims about it.  Tests
assert the index is complete and that every referenced module/bench
exists, so documentation drift fails CI.

Entries with a ``run`` target are the *runnable scenarios*: ``python
-m repro run <identifier>`` resolves the target, calls it with the
output directory and fails on any problem it returns; CI runs each in
two fresh processes and ``diff -r`` the declared ``artifacts``.
"""

from __future__ import annotations

import importlib
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Experiment", "EXPERIMENT_INDEX", "runnable", "resolve", "validate_index"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact of the paper."""

    identifier: str
    title: str
    workload: str
    modules: Tuple[str, ...]
    bench: str
    claims: Tuple[str, ...]
    #: One-line description for the CLI (runnable scenarios only).
    help: str = ""
    #: ``module:function`` of the scenario's gate, called as
    #: ``gate(out_dir) -> problems`` by ``python -m repro run``.
    run: str = ""
    #: Files the gate writes under ``out_dir`` that must be
    #: byte-identical across same-seed processes (``*_meta.json``
    #: siblings carry wall clocks and are never diffed).
    artifacts: Tuple[str, ...] = ()


EXPERIMENT_INDEX: Dict[str, Experiment] = {
    "table2": Experiment(
        identifier="table2",
        title="Micro-benchmark configurations m1-m9",
        workload="configuration matrix, no traffic",
        modules=("repro.cluster.deployments", "repro.proxy.config"),
        bench="benchmarks/test_table2_configs.py",
        claims=(
            "feature ladder m1->m6 and scale ladder m6->m9 as printed",
            "every configuration fits the 27-node testbed",
        ),
    ),
    "table3": Experiment(
        identifier="table3",
        title="Macro-benchmark configurations b1-b4 / f1-f4",
        workload="configuration matrix, no traffic",
        modules=("repro.cluster.deployments",),
        bench="benchmarks/test_table3_configs.py",
        claims=(
            "LRS deployments of 7-16 nodes",
            "PProx adds 30% (f1) to 50% (f4) infrastructure",
        ),
    ),
    "fig6": Experiment(
        identifier="fig6",
        title="Latency cost of each privacy feature",
        workload="gets against the nginx stub, 50-250 RPS",
        modules=("repro.proxy", "repro.crypto", "repro.sgx.costs", "repro.lrs.stub"),
        bench="benchmarks/test_fig6_privacy_features.py",
        claims=(
            "encryption costs more than SGX",
            "SGX adds 2-5 ms median",
            "disabling item pseudonymization is negligible",
        ),
    ),
    "fig7": Experiment(
        identifier="fig7",
        title="Impact of request/response shuffling",
        workload="gets against the stub, S in {off,5,10}, 50-250 RPS",
        modules=("repro.proxy.shuffler",),
        bench="benchmarks/test_fig7_shuffling.py",
        claims=(
            "shuffle latency inversely proportional to load",
            "S=10 too costly at 50 RPS, fine at 250 RPS",
        ),
    ),
    "fig8": Experiment(
        identifier="fig8",
        title="Horizontal scaling of the proxy service",
        workload="gets against the stub, 1-4 instance pairs, up to 1000 RPS",
        modules=("repro.proxy.service", "repro.simnet.loadbalancer"),
        bench="benchmarks/test_fig8_proxy_scaling.py",
        claims=(
            "each UA+IA pair buys ~250 RPS",
            "1000 RPS under 200 ms median with 4 pairs",
            "over-provisioning raises shuffle latency",
        ),
    ),
    "fig9": Experiment(
        identifier="fig9",
        title="Harness LRS baseline performance",
        workload="two-phase MovieLens-shaped trace, 3-12 frontends",
        modules=("repro.lrs.service", "repro.lrs.cco", "repro.workload"),
        bench="benchmarks/test_fig9_harness_baseline.py",
        claims=(
            "~250 RPS per 3 frontends before saturation",
            "sub-100 ms medians at low/moderate load",
        ),
    ),
    "fig10": Experiment(
        identifier="fig10",
        title="Full system: PProx + Harness",
        workload="two-phase trace through the complete stack, f1-f4",
        modules=("repro.proxy", "repro.lrs", "repro.client", "repro.workload"),
        bench="benchmarks/test_fig10_full_system.py",
        claims=(
            "latency ~ fig8 + fig9 sums",
            "medians inside the 300 ms SLO for 250-750 RPS",
            "shuffling dominates at 50 RPS",
        ),
    ),
    "sec62": Experiment(
        identifier="sec62",
        title="Shuffling linkage bound 1/(S*I)",
        workload="Monte-Carlo over the real shuffle buffer + balancer",
        modules=("repro.privacy.linkage", "repro.proxy.shuffler"),
        bench="benchmarks/test_sec62_linkage.py",
        claims=("empirical success within 4 sigma of 1/(S*I)",),
    ),
    "sec61": Experiment(
        identifier="sec61",
        title="User-Interest unlinkability case analysis",
        workload="real-crypto end-to-end runs + knowledge closure",
        modules=("repro.privacy.unlinkability", "repro.privacy.adversary"),
        bench="tests/test_privacy_unlinkability.py",
        claims=(
            "cases 1a-c and 2a-c derive zero links",
            "both-layer compromise recovers everything",
            "wire-level case-2 extension (reproduction finding)",
        ),
    ),
    "sec63": Experiment(
        identifier="sec63",
        title="Limitations: history attack, low traffic, clear items",
        workload="intersection attacks and degraded configurations",
        modules=("repro.privacy.history", "repro.tenancy", "repro.client.redirect"),
        bench="tests/test_privacy_history.py",
        claims=(
            "stable profiles converge under intersection",
            "redirection removes the IP anchor",
            "multi-tenancy aggregates traffic at a blast-radius cost",
        ),
    ),
    "sec9": Experiment(
        identifier="sec9",
        title="Contrast with encrypted-processing recommenders",
        workload="Paillier Slope One vs PProx per-request crypto",
        modules=("repro.related.paillier", "repro.related.encrypted_slope_one"),
        bench="benchmarks/test_related_work_contrast.py",
        claims=("order-of-magnitude latency gap in PProx's favour",),
    ),
    "chaos": Experiment(
        identifier="chaos",
        title="Fault injection and failure recovery drill",
        workload="gets against the stub under crashes, partitions, loss, brownouts",
        modules=("repro.faults", "repro.cluster.health", "repro.experiments.chaos"),
        bench="tests/test_chaos_scenario.py",
        claims=(
            "availability stays above the floor with all fault kinds active",
            "crashed enclaves re-attest and re-provision before readmission",
            "same-seed chaos runs are deterministic",
        ),
        help="seeded fault-injection drill: crashes, partition, loss, delay, LRS brownout",
        run="repro.experiments.chaos:gate",
        artifacts=("slo.json", "telemetry.jsonl", "telemetry.prom"),
    ),
    "overload": Experiment(
        identifier="overload",
        title="Overload protection and graceful degradation",
        workload="offered-load sweep at 0.5x/1x/2x capacity, protected vs unprotected",
        modules=(
            "repro.overload",
            "repro.simnet.queueing",
            "repro.experiments.overload",
        ),
        bench="tests/test_overload_scenario.py",
        claims=(
            "protected goodput at 2x capacity stays within 20% of saturation",
            "p99 of admitted requests stays bounded while the baseline diverges",
            "sheds are pre-shuffle only: anonymity never drops below S*I",
            "every reject is the canonical padded message on protected hops",
        ),
        help="offered-load sweep at 0.5x/1x/2x capacity, with and without protection",
        run="repro.experiments.overload:gate",
        artifacts=("slo.json", "telemetry.jsonl", "telemetry.prom"),
    ),
    "rotation": Experiment(
        identifier="rotation",
        title="Epoch-based live re-key without downtime",
        workload="mixed gets/posts through the full stack while the UA keys rotate",
        modules=(
            "repro.proxy.epochs",
            "repro.proxy.rekey",
            "repro.experiments.rotation",
        ),
        bench="tests/test_rotation_scenario.py",
        claims=(
            "the drill completes under live traffic with zero aborted requests",
            "released shuffle batches never drop the anonymity set below S*I",
            "a crash of the rotating instance pauses the drill, never aborts it",
            "no wire pseudonym is linkable across epochs",
        ),
        help="live UA key rotation under traffic with a crash and a partition mid-window",
        run="repro.experiments.rotation:gate",
        artifacts=("slo.json", "telemetry.jsonl", "telemetry.prom"),
    ),
    "scale": Experiment(
        identifier="scale",
        title="Million-user proxy-scaling sweep (Figure-8 shape at 1000x rate)",
        workload="1M synthetic users, 25k-100k RPS through UA->shuffle->IA->LRS",
        modules=(
            "repro.simnet.clock",
            "repro.experiments.scale",
        ),
        bench="tests/test_scale_scenario.py",
        claims=(
            "the calendar-queue engine sustains the 100k RPS point",
            "the full sweep completes in minutes of wall time",
            "same-seed artifacts are byte-identical across processes and on the heap oracle",
            "goodput, full-batch ratio and p99 objectives hold over the gate's own sweep",
        ),
        help="CI-sized proxy-scaling sweep (200k users, 25k-50k RPS) and its static SLO verdict",
        run="repro.experiments.scale:gate",
        artifacts=("scale.json", "slo.json"),
    ),
    "fleet": Experiment(
        identifier="fleet",
        title="Self-healing sharded fleet: domain loss mid-split",
        workload="mixed gets/posts across UA+IA shards while one shard's domain dies mid-split",
        modules=(
            "repro.fleet",
            "repro.fleet.ring",
            "repro.fleet.supervisor",
            "repro.experiments.fleet",
        ),
        bench="tests/test_fleet_scenario.py",
        claims=(
            "a whole-domain kill mid-split aborts zero client calls",
            "routing keys are request nonces only; no shard identity on the wire",
            "released flushes never drop the anonymity set below S*I",
            "same-seed fleet drills are byte-identical across processes",
        ),
        help="sharded-fleet drill: a whole failure domain dies mid-split",
        run="repro.experiments.fleet:gate",
        artifacts=("fleet.json", "slo.json", "telemetry.jsonl", "telemetry.prom"),
    ),
    "capacity": Experiment(
        identifier="capacity",
        title="Capacity planning: solve (shards, I, S), verify under chaos",
        workload="solved fleet shapes at 250/500/1000 RPS, clean + chaos verification legs",
        modules=(
            "repro.experiments.capacity",
            "repro.fleet.service",
            "repro.obs.slo",
        ),
        bench="tests/test_capacity_scenario.py",
        claims=(
            "each solved plan meets its p99 SLO fault-free",
            "each plan degrades gracefully (goodput >= 0.9) with chaos + overload armed",
            "the shuffle floor holds outside network-interruption windows",
            "capacity.json is deterministic for a fixed seed",
        ),
        help="capacity planner: solve (shards, I, S) per target, verify clean + chaos legs",
        run="repro.experiments.capacity:gate",
        artifacts=("capacity.json",),
    ),
    "telemetry": Experiment(
        identifier="telemetry",
        title="Telemetry pipeline self-check",
        workload="m6 gets against the stub at 40 RPS with spans, metrics and the event log on",
        modules=("repro.telemetry", "repro.experiments.telemetry_gate"),
        bench="tests/test_telemetry_spans.py",
        claims=(
            "every completed request yields one complete five-stage trace",
            "span-derived stage durations equal the wire's send-timestamp deltas",
            "the JSONL artifact round-trips and the redaction audit is clean",
        ),
        help="short m6 run with full telemetry: complete traces, JSONL round-trip, redaction audit",
        run="repro.experiments.telemetry_gate:gate",
        artifacts=("telemetry.jsonl", "telemetry.prom"),
    ),
    "obs": Experiment(
        identifier="obs",
        title="Observability gate: causal tracing, profiler, SLO verdict",
        workload="obs micro run (2 UA + 2 IA, S=4) with every observability layer armed",
        modules=("repro.obs", "repro.obs.smoke", "repro.obs.slo"),
        bench="tests/test_obs_slo.py",
        claims=(
            "no trace id survives past the UA shuffle boundary",
            "profile, flamegraph, trace and slo artifacts are functions of the seed alone",
            "the anonymity-floor objective holds through the micro run",
        ),
        help="obs micro run: virtual-time profile, causal trace and SLO verdict",
        run="repro.obs.smoke:gate",
        artifacts=("profile.json", "profile.folded", "trace.jsonl", "slo.json"),
    ),
    "wire": Experiment(
        identifier="wire",
        title="Wire-format parity: JSON vs binary codec",
        workload="one seeded get/post mix per codec, default and hardened client hop",
        modules=("repro.rest.codec", "repro.privacy.wire", "repro.experiments.wire"),
        bench="tests/test_wire_codec.py",
        claims=(
            "per-request outcomes and wire audits are identical under both codecs",
            "the binary run exercises the batch-envelope path",
        ),
        help="codec parity: one traffic mix under the json and binary wires",
        run="repro.experiments.wire:gate",
        artifacts=tuple(
            f"parity_{mode}_{codec}.json"
            for mode in ("default", "hardened")
            for codec in ("json", "binary")
        ),
    ),
    "ablations": Experiment(
        identifier="ablations",
        title="Design-choice ablations",
        workload="flush timeout, LB policy, hardened hop, padding, providers",
        modules=("repro.proxy", "repro.experiments.runner"),
        bench="benchmarks/test_ablations.py",
        claims=("each knob moves latency/privacy in the documented direction",),
    ),
}


def runnable() -> Dict[str, Experiment]:
    """The entries ``python -m repro run`` accepts, in index order."""
    return {key: exp for key, exp in EXPERIMENT_INDEX.items() if exp.run}


def resolve(target: str) -> Callable[..., Any]:
    """Import a ``module:function`` target and return the function."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def validate_index() -> List[str]:
    """Check that all referenced modules import, benches exist, and
    every runnable entry resolves and declares what CI diffs.

    Returns a list of problems (empty when the index is sound).
    """
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    problems: List[str] = []
    for experiment in EXPERIMENT_INDEX.values():
        for module in experiment.modules:
            try:
                importlib.import_module(module)
            except ImportError as error:
                problems.append(f"{experiment.identifier}: module {module} ({error})")
        if not (repo_root / experiment.bench).exists():
            problems.append(f"{experiment.identifier}: bench {experiment.bench} missing")
        if not experiment.run:
            continue
        try:
            if not callable(resolve(experiment.run)):
                problems.append(f"{experiment.identifier}: {experiment.run} is not callable")
        except (ImportError, AttributeError) as error:
            problems.append(f"{experiment.identifier}: target {experiment.run} ({error})")
        if not (experiment.help and experiment.artifacts):
            problems.append(
                f"{experiment.identifier}: runnable but declares no help or no artifacts"
            )
    return problems
