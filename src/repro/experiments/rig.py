"""The drill rig: the one place that knows the order of a live run.

Every scenario that drives traffic through a real deployment — chaos,
overload, rotation, the fleet drill, capacity verification, the obs
micro run — follows the paper's §8 methodology: deploy, inject at a
fixed rate, let it drain, report.  :class:`DrillRig` writes that
sequence once, as a plain object the drivers call top to bottom::

    rig = DrillRig("chaos", seed, grace=8.0,      # context + telemetry + LRS
                   out_dir=out_dir)               #   (+ its streamed artifact)
    rig.deploy(config, **client_options)          # deployment (or fleet + its supervisor) + client
    rig.observe_wire()                            # optional: adversary + reject auditor
    rig.add_monitor(0.25)                         # optional: health monitor
    rig.arm(plan, lrs=..., rotation=...)          # optional: the operator timeline
    rig.instrument()                              # injector + metrics + flush log
    rig.preload()                                 # harness-backed drills only
    rig.offer(rps, duration)                      # open-loop arrivals
    rig.watch({...})                              # SLO engine, bounded
    rig.run()                                     # start, run_until, stop, drain
    rig.finish(summary, objectives, checks)       # slo verdict + finalize_run

The plan (:class:`~repro.faults.plan.FaultPlan`) holds every fault and
operator verb of the drill, and :meth:`DrillRig.run` alone starts and
stops the controllers.  What stays in a driver is what is actually
different about it: its configuration, its plan, its extra SLO sources,
its objectives and the keys of its run-end summary.

One run, one verdict.  Every acceptance check of a drill is an
:class:`~repro.obs.slo.Objective` — sampled ones read the engine's
sources, run-end ones (``at_least`` / ``at_most`` / ``equal``) read the
summary and the *checks* only the verdict needs.  :meth:`DrillRig.finish`
keeps the run's ``summary`` and ``verdict`` on the rig, and a driver
returns the finished rig; a gate ends with :func:`write_verdict`, whose
problems are the verdict's and nothing else.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.context import Deployment, SimContext
from repro.faults import FaultPlan, FaultSupervisor, NetworkFaultController
from repro.fleet.service import build_fleet
from repro.fleet.supervisor import FleetSupervisor
from repro.lrs.service import HarnessService
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.obs.slo import (
    Objective,
    SloEngine,
    SloReport,
    evaluate_static,
    histogram_quantile,
    write_slo,
)
from repro.overload import OverloadPolicy
from repro.privacy.adversary import Adversary
from repro.privacy.wire import RejectAuditor
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.simnet.metrics import LatencyRecorder
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

__all__ = [
    "DrillRig",
    "Flush",
    "observe_wire",
    "stub_lrs",
    "pseudonymise_stub",
    "print_summary",
    "write_json",
    "write_verdict",
    "POST_SHARE",
]

#: Population of the harness-backed drills (rotation, fleet, capacity).
DRILL_USERS = 40
DRILL_ITEMS = tuple(f"item-{index}" for index in range(12))
#: Feedback posts stored (and trained on) before a harness-backed
#: drill: a multiple of 2*S for every S the drills use, so round-robin
#: leaves no partial batch behind for the shuffle timer.
PRELOAD_EVENTS = 160
#: Share of posts in the harness-backed drills' request mix.
POST_SHARE = 0.2


class Flush(NamedTuple):
    """One released shuffle batch, as an adversary on the wire sees it."""

    at: float
    size: int
    #: Name of the releasing instance.
    instance: str
    #: Alive IA instances behind it (of its shard, in a fleet) — the
    #: I of the batch's effective ``S*I`` anonymity set.
    live_ia: int


def observe_wire(network: Any, lrs: Optional[Any] = None) -> Tuple[Adversary, RejectAuditor]:
    """Stand up a run's wire observers on *network*'s one tap: the
    paper's passive §2.3 adversary (every flow, every body) and the
    reject-uniformity auditor of the protected return hops.

    The one place a scenario gets either; the adversary also reads the
    database (Figure 2 ➋) when *lrs* is a real :class:`HarnessService`.
    Both only watch — neither is on the data path — so attaching them
    moves no artifact byte.
    """
    adversary, rejects = Adversary(), RejectAuditor()
    adversary.attach(network)
    if isinstance(lrs, HarnessService):
        adversary.observe_lrs(lrs.engine.store)
    network.add_wiretap(rejects.observe)
    return adversary, rejects


def stub_lrs(ctx: SimContext) -> StubLrs:
    """The paper's nginx stub (§8.1) on *ctx*'s ``stub`` stream."""
    return StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))


def pseudonymise_stub(stub: StubLrs, deployment: Deployment) -> None:
    """Make the stub's static payload look like a captured Harness
    response: item identifiers pseudonymised under the IA key."""
    config = deployment.config
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            deployment.ctx.resolved_provider(),
            deployment.service.provisioner.layer_keys["IA"].symmetric_key,
        )


class DrillRig:
    """One live-deployment run; see the module docstring for the order."""

    def __init__(
        self,
        scenario: str,
        seed: int,
        *,
        grace: float,
        run_label: Optional[str] = None,
        frontends: int = 0,
        costs: ProxyCostModel = DEFAULT_COSTS,
        loop: Optional[Any] = None,
        out_dir: Optional[str] = None,
    ) -> None:
        """Context, telemetry hub and LRS backend.

        The rig builds the run's hub and binds it to the run's loop:
        :attr:`telemetry` is the only hub the run records into, and
        every record it emits is built and re-checked by the redaction
        audit.  Given *out_dir*, the hub streams its records to
        ``telemetry.jsonl`` there from the first one on, and
        :meth:`finish` closes that file and writes ``telemetry.prom``;
        without one, it writes none and keeps none.

        *frontends* > 0 puts a real :class:`HarnessService` behind the
        proxy; 0 means the nginx stub.  *grace* is the drain time after
        the offered window: retries, hedges and the last fault windows
        resolve inside it before counters are read.
        """
        self.scenario = scenario
        self.grace = grace
        self.telemetry = Telemetry(scrape_interval=1.0)
        self.out_dir = out_dir
        if out_dir is not None:
            self.telemetry.open_artifact(out_dir)
        else:
            self.telemetry.stream_to(None)
        self.ctx = SimContext.fresh(seed, costs=costs, telemetry=self.telemetry, loop=loop)
        self.loop = self.ctx.loop
        self.rng = self.ctx.rng
        self.telemetry.bind(self.loop, run_label=run_label or f"{scenario}/seed{seed}")
        if frontends:
            self.lrs: Any = HarnessService(
                loop=self.loop, rng=self.rng.stream("lrs"), frontend_count=frontends
            )
            self.lrs.engine.trainer.llr_threshold = 0.0
        else:
            self.lrs = stub_lrs(self.ctx)
        #: The controllers :meth:`run` stops (and starts, but for the
        #: rotation, which its plan's ``rotate`` entry starts).
        self.monitor: Optional[Any] = None
        self.fleet_supervisor: Optional[FleetSupervisor] = None
        self.rotation: Optional[Any] = None
        self.fault_supervisor: Optional[FaultSupervisor] = None
        self.plan = FaultPlan()
        #: Built by :meth:`watch`; stays None on capacity's static legs.
        self.slo: Optional[SloEngine] = None
        #: Set by :meth:`finish`: the run-end summary and the verdict.
        self.summary: Dict[str, Any] = {}
        self.verdict: Optional[SloReport] = None
        #: Every shuffle release of the run, in release order.
        self.flushes: List[Flush] = []
        self.start = self.end = 0.0

    # -- build ----------------------------------------------------------

    def deploy(
        self,
        config: PProxConfig,
        *,
        backend: Optional[Any] = None,
        shards: int = 0,
        overload: Optional[OverloadPolicy] = None,
        **client_options: Any,
    ) -> None:
        """The proxy service and its client.

        *backend* substitutes a wrapper around :attr:`lrs` (brownout,
        guard) as what the IA layer calls.  *shards* > 0 builds a
        sharded fleet of per-shard *config* deployments, and the
        :class:`FleetSupervisor` that probes it and splits its
        shards, instead of a single deployment.
        """
        if backend is not None:
            picker: Callable[[], Any] = lambda: backend
        elif isinstance(self.lrs, HarnessService):
            picker = self.lrs.pick_frontend
        else:
            picker = lambda: self.lrs
        if shards:
            self.service: Any = build_fleet(
                self.ctx, config, picker, shards=shards, overload=overload, vnodes=128
            )
            self.deployment = Deployment(ctx=self.ctx, service=self.service, config=config)
            self.fleet_supervisor = FleetSupervisor(
                loop=self.loop, fleet=self.service, telemetry=self.telemetry
            )
        else:
            self.deployment = Deployment.build(
                ctx=self.ctx, config=config, lrs_picker=picker, overload=overload
            )
            self.service = self.deployment.service
            if isinstance(self.lrs, StubLrs):
                pseudonymise_stub(self.lrs, self.deployment)
        self.client = self.deployment.client(**client_options)

    def observe_wire(self) -> Tuple[Adversary, RejectAuditor]:
        """The run's adversary and reject auditor (:func:`observe_wire`)."""
        return observe_wire(self.ctx.network, self.lrs)

    def add_monitor(self, interval: float) -> None:
        """A health monitor over the service (:meth:`run` starts it)."""
        self.monitor = self.deployment.health_monitor(interval=interval)

    def arm(
        self, plan: FaultPlan, *, lrs: Optional[Any] = None, rotation: Optional[Any] = None
    ) -> None:
        """The drill's operator timeline: *plan*, timed from traffic
        start, is scheduled by :meth:`run`.

        *lrs* is the brownout wrapper ``brownout`` entries act on;
        *rotation* the coordinator ``rotate`` entries announce;
        ``split`` goes to the fleet's supervisor.  A verb
        none of them can apply is a ``ValueError`` here.  Call it
        before :meth:`instrument`, which instruments the supervisor.
        """
        netfaults = NetworkFaultController(
            network=self.ctx.network, rng=self.rng.stream("netfaults")
        )
        self.fault_supervisor = FaultSupervisor(
            loop=self.loop, service=self.service, netfaults=netfaults,
            lrs=lrs, rotation=rotation, fleet=self.fleet_supervisor, telemetry=self.telemetry,
        )
        self.fault_supervisor.check(plan)
        self.plan, self.rotation = plan, rotation

    def instrument(self, *, guard: Optional[Any] = None) -> None:
        """Injector, the metric instruments and the flush log.

        The flush log chains behind the telemetry hook on every shuffle
        buffer — including those of shards born mid-run — so each
        release is recorded once, whatever a scenario later asks of it.
        """
        self.injector = Injector(
            loop=self.loop, rng=self.rng.stream("injector"),
            recorder=LatencyRecorder(self.scenario),
        )
        brownout = self.fault_supervisor.lrs if self.fault_supervisor is not None else None
        instrument_stack(
            self.telemetry,
            service=self.service,
            provider=self.ctx.resolved_provider(),
            lrs=brownout if brownout is not None else self.lrs,
            injector=self.injector,
            network=self.ctx.network,
            monitor=self.monitor,
            client=self.client,
            supervisor=self.fault_supervisor,
            guard=guard,
            rotation=self.rotation,
        )
        directory = getattr(self.service, "directory", None)
        if directory is None:
            ia_instances = self.service.ia_instances
            self._log_flushes(
                self.service.ua_instances + ia_instances,
                lambda: sum(1 for instance in ia_instances if instance.alive),
            )
        else:
            def log_shard(shard: Any) -> None:
                self._log_flushes(shard.instances(), lambda: shard.live_ia_count)

            for shard in directory.shards.values():
                log_shard(shard)
            self.service.shard_hooks.append(log_shard)

    def _log_flushes(self, instances: Iterable[Any], live_ia: Callable[[], int]) -> None:
        for instance in instances:
            buffer = instance.shuffle_buffer
            if buffer is not None:
                buffer.chain_on_flush(
                    lambda size, timer_fired, _name=instance.name: self.flushes.append(
                        Flush(self.loop.now, size, _name, live_ia())
                    )
                )

    # -- drive ----------------------------------------------------------

    def preload(self) -> None:
        """Store and train on a feedback prefix before the drill.

        Nothing periodic has started yet, so the bare ``loop.run()``
        terminates; the offered window is scheduled relative to the
        post-preload clock, so preload cost never shifts the drill.
        """
        rng = self.rng.stream("preload")
        for index in range(PRELOAD_EVENTS):
            self.client.post(f"user-{index % DRILL_USERS}", rng.choice(DRILL_ITEMS))
        self.loop.run()
        self.lrs.train()

    def offer(
        self, rps: float, duration: float, *, users: int = DRILL_USERS, post_share: float = 0.0
    ) -> None:
        """Schedule the open-loop arrivals: gets, with *post_share* posts."""
        names = [f"user-{index}" for index in range(users)]
        rng = self.rng.stream("users")
        client = self.client

        def issue(on_complete: Callable[[Any], None]) -> None:
            if post_share and rng.random() < post_share:
                client.post(rng.choice(names), rng.choice(DRILL_ITEMS), on_complete=on_complete)
            else:
                client.get(rng.choice(names), on_complete=on_complete)

        self.start, self.end = self.injector.inject(rps, duration, issue)

    def watch(self, sources: Dict[str, Callable[[], Optional[float]]]) -> None:
        """Sample the run under its own :class:`SloEngine`.

        Every scenario tracks issued / completed / p99; *sources* adds
        its own.  :meth:`run` attaches the engine, always bounded at the
        drain horizon: the SLO tick and the telemetry scraper both
        re-arm while the loop has pending work, so two unbounded
        tickers would keep each other alive and the final ``run()``
        would never drain.
        """
        self.slo = slo = SloEngine(telemetry=self.telemetry)
        latency = self.telemetry.registry.histogram(
            "pprox_request_latency_seconds",
            "End-to-end client-observed request latency.",
        )
        slo.track("issued", lambda: self.injector.report.issued)
        slo.track("completed", lambda: self.injector.report.completed)
        for key, source in sources.items():
            slo.track(key, source)
        slo.track("p99_latency_seconds", lambda: histogram_quantile(latency, 0.99))

    def run(self) -> None:
        """Start the controllers, schedule the plan (the clock stands at
        traffic start, so at ``start + at``) and attach the SLO engine,
        in that order; run to the drain horizon, stop every controller,
        drain — where each one's last, inert tick still fires."""
        horizon = self.end + self.grace
        for controller in (self.monitor, self.fleet_supervisor):
            if controller is not None:
                controller.start()
        if self.fault_supervisor is not None:
            self.fault_supervisor.arm(self.plan)
        if self.slo is not None:
            self.slo.attach(self.loop, until=horizon)
        self.loop.run_until(horizon)
        for controller in (self.monitor, self.fleet_supervisor, self.rotation):
            if controller is not None:
                controller.stop()
        self.loop.run()

    # -- report ---------------------------------------------------------

    def released(
        self, since: float = float("-inf"), until: float = float("inf"), *, layer: Optional[str] = None
    ) -> List[Flush]:
        """Flushes released in ``[since, until]`` (optionally one layer's)."""
        names = None
        if layer is not None:
            names = {inst.name for inst in getattr(self.service, f"{layer.lower()}_instances")}
        return [
            flush for flush in self.flushes
            if since <= flush.at <= until and (names is None or flush.instance in names)
        ]

    def offered_window(self, *, layer: Optional[str] = None) -> List[Flush]:
        """Flushes released while load was offered."""
        return self.released(self.start, self.end, layer=layer)

    @staticmethod
    def anonymity_floor(flushes: Iterable[Flush]) -> Optional[int]:
        """The smallest effective anonymity set among *flushes*: min
        over released batches of size x IA instances alive behind the
        releasing instance at that instant (``None`` for no flush).

        Equal to ``min(size) * len(ia_instances)`` as long as no IA is
        down inside the judged window — true of every drill today, so
        the artifacts did not move when the drivers stopped computing
        that static product by hand — and right when one is.
        """
        return min((flush.size * flush.live_ia for flush in flushes), default=None)

    @property
    def shed_total(self) -> int:
        """Requests shed by the proxy stages, all instances and causes."""
        return sum(
            instance.sheds
            for instance in self.service.ua_instances + self.service.ia_instances
        )

    def counters_for(self, *names: str) -> Dict[str, Any]:
        """The shared workload/client/recovery counters *names*, read now."""
        report, client = self.injector.report, self.client
        instances = self.service.ua_instances + self.service.ia_instances
        sources: Dict[str, Callable[[], Any]] = {
            "issued": lambda: report.issued,
            "completed": lambda: report.completed,
            "failed": lambda: report.failed,
            "outcomes": lambda: dict(client.outcomes),
            "retries_performed": lambda: client.retries_performed,
            "hedges_launched": lambda: client.hedges_launched,
            "retryable_errors": lambda: client.retryable_errors,
            "timeouts": lambda: client.timeouts,
            "epoch_bumps": lambda: client.epoch_bumps,
            "stale_responses": lambda: sum(i.stale_responses for i in instances),
            "transform_errors": lambda: sum(i.transform_errors for i in instances),
            "shed_total": lambda: self.shed_total,
            "audit_violations": lambda: len(self.telemetry.audit()),
        }
        if self.fault_supervisor is not None:
            supervisor = self.fault_supervisor
            netfaults = supervisor.netfaults
            sources.update(
                crashes_injected=lambda: supervisor.crashes_injected,
                restarts_completed=lambda: supervisor.restarts_completed,
                partition_drops=lambda: netfaults.partition_drops,
                random_drops=lambda: netfaults.random_drops,
                delays_injected=lambda: netfaults.delays_injected,
            )
        if self.monitor is not None:
            monitor = self.monitor
            sources.update(
                failovers=lambda: monitor.failovers,
                readmissions=lambda: len(monitor.readmitted),
                stale_generation_blocks=lambda: monitor.stale_generation_blocks,
            )
        return {name: sources[name]() for name in names}

    def event_count(self, kind: str) -> int:
        """How many events of one kind the run has emitted."""
        return self.telemetry.event_log.counts.get(kind, 0)

    def finish(
        self,
        summary: Dict[str, Any],
        objectives: Sequence[Objective],
        checks: Optional[Dict[str, Any]] = None,
    ) -> SloReport:
        """Close the run: its verdict over *objectives*, then the
        telemetry run-end record carrying *summary*.

        Run-end objectives read *summary*, then *checks* — values only
        the verdict needs, which never reach the record.  A watched run
        is judged by its engine; a run never watched is judged
        statically at the clock's end, under its run label, and its
        record carries that verdict as ``slo`` (no ``slo_verdict`` event
        holds it).  Keeps :attr:`summary` and :attr:`verdict`, and
        closes the telemetry artifact if the rig was given an out-dir.
        """
        values = {**summary, **(checks or {})}
        record = {"scenario": self.scenario, **summary}
        if self.slo is not None:
            self.verdict = self.slo.evaluate(objectives, self.scenario, values)
        else:
            self.verdict = evaluate_static(
                objectives, values, self.telemetry.run_label, generated_at=self.loop.now
            )
            record["slo"] = self.verdict.to_dict()
        self.summary = summary
        self.telemetry.finalize_run(extra=record)
        if self.out_dir is not None:
            self.telemetry.close_artifact()
        return self.verdict


# -- what the scenario gates share ----------------------------------------


def print_summary(title: str, summary: Dict[str, Any], keys: Sequence[str]) -> None:
    """The gate's human-readable digest: *keys* of *summary*, aligned."""
    print(title)
    print("=" * len(title))
    width = max(len(key) for key in keys) + 1
    for key in keys:
        print(f"  {key:{width}s} {summary[key]}")


def write_verdict(report: SloReport, out_dir: str) -> List[str]:
    """How every judged gate ends: ``slo.json`` beside the run's other
    artifacts, and its problems as the gate's."""
    write_slo(report, out_dir)
    return report.problems()


def write_json(payload: Dict[str, Any], out_dir: str, name: str) -> str:
    """Write one deterministic JSON artifact; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
