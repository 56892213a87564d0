"""The drill rig: the one place that knows the order of a live run.

Every scenario that drives traffic through a real deployment — chaos,
overload, rotation, the fleet drill, capacity verification, the obs
micro run — follows the paper's §8 methodology: deploy, inject at a
fixed rate, let it drain, report.  :class:`DrillRig` writes that
sequence once, as a plain object the drivers call top to bottom::

    rig = DrillRig("chaos", seed, grace=8.0)      # context + telemetry + LRS
    rig.deploy(config, **client_options)          # deployment (or fleet) + client
    rig.observe_wire()                            # optional: adversary + reject auditor
    rig.add_monitor(0.25); rig.add_fault_rig()    # optional recovery plumbing
    rig.instrument()                              # injector + metrics + flush log
    rig.preload()                                 # harness-backed drills only
    rig.offer(rps, duration)                      # open-loop arrivals
    rig.watch({...})                              # SLO engine, bounded
    ...arm whatever is specific to the scenario...
    rig.run(stop=[...])                           # run_until -> stop -> drain
    rig.finish(extra, objectives)                 # slo verdict + finalize_run

What stays in a driver is what is actually different about it: its
configuration, what it arms and when, its extra SLO sources and its
acceptance gates.  Every watched run is judged once, by the engine that
sampled it; a gate ends with :func:`write_verdict`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.context import Deployment, SimContext
from repro.faults import FaultSupervisor, NetworkFaultController
from repro.fleet.service import build_fleet
from repro.lrs.service import HarnessService
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.obs.slo import Objective, SloEngine, SloReport, histogram_quantile, write_slo
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
    "summarize",
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
        telemetry: Optional[Telemetry] = None,
        run_label: Optional[str] = None,
        frontends: int = 0,
        costs: ProxyCostModel = DEFAULT_COSTS,
        loop: Optional[Any] = None,
    ) -> None:
        """Context, bound telemetry hub and LRS backend.

        *frontends* > 0 puts a real :class:`HarnessService` behind the
        proxy; 0 means the nginx stub.  *grace* is the drain time after
        the offered window: retries, hedges and the last fault windows
        resolve inside it before counters are read.
        """
        self.scenario = scenario
        self.grace = grace
        self.telemetry = telemetry if telemetry is not None else Telemetry(scrape_interval=1.0)
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
        self.monitor: Optional[Any] = None
        self.netfaults: Optional[NetworkFaultController] = None
        self.fault_supervisor: Optional[FaultSupervisor] = None
        #: Built by :meth:`watch`; stays None on capacity's static legs.
        self.slo: Optional[SloEngine] = None
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
        sharded fleet of per-shard *config* deployments instead of a
        single one.
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

    def add_monitor(self, interval: float) -> Any:
        """A health monitor over the service (the driver starts it)."""
        self.monitor = self.deployment.health_monitor(interval=interval)
        return self.monitor

    def add_fault_rig(self, lrs: Optional[Any] = None) -> FaultSupervisor:
        """Network fault controller + supervisor (the driver arms a plan)."""
        self.netfaults = NetworkFaultController(
            network=self.ctx.network, rng=self.rng.stream("netfaults")
        )
        self.fault_supervisor = FaultSupervisor(
            loop=self.loop, service=self.service, netfaults=self.netfaults,
            lrs=lrs, telemetry=self.telemetry,
        )
        return self.fault_supervisor

    def instrument(
        self, *, lrs: Optional[Any] = None, guard: Optional[Any] = None, rotation: Optional[Any] = None
    ) -> None:
        """Injector, the metric instruments and the flush log.

        The flush log chains behind the telemetry hook on every shuffle
        buffer — including those of shards born mid-run — so each
        release is recorded once, whatever a scenario later asks of it.
        """
        self.injector = Injector(
            loop=self.loop, rng=self.rng.stream("injector"),
            recorder=LatencyRecorder(self.scenario),
        )
        instrument_stack(
            self.telemetry,
            service=self.service,
            provider=self.ctx.resolved_provider(),
            lrs=lrs if lrs is not None else self.lrs,
            injector=self.injector,
            network=self.ctx.network,
            monitor=self.monitor,
            client=self.client,
            supervisor=self.fault_supervisor,
            guard=guard,
            rotation=rotation,
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
            self.service.on_shard_added = log_shard

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
        its own.  The engine is always bounded at the drain horizon:
        the SLO tick and the telemetry scraper both re-arm while the
        loop has pending work, so two unbounded tickers would keep each
        other alive and the final ``run()`` would never drain.
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
        slo.attach(self.loop, until=self.end + self.grace)

    def run(self, stop: Sequence[Any] = ()) -> None:
        """Run to the drain horizon, stop the periodics, drain."""
        self.loop.run_until(self.end + self.grace)
        for periodic in stop:
            periodic.stop()
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

    def counters_for(self, result_type: Type[Any]) -> Dict[str, Any]:
        """The shared workload/client/recovery counters that
        *result_type* (a result dataclass) has fields for."""
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
            supervisor, netfaults = self.fault_supervisor, self.netfaults
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
        wanted = {spec.name for spec in dataclasses.fields(result_type)}
        return {name: read() for name, read in sources.items() if name in wanted}

    def events(self, kind: str) -> List[Dict[str, Any]]:
        """The run's structured events of one kind, in emission order."""
        return [
            event.to_dict() for event in self.telemetry.event_log.events if event.kind == kind
        ]

    def finish(self, extra: Dict[str, Any], objectives: Sequence[Objective]) -> SloReport:
        """Close a watched run: the engine's verdict over *objectives*,
        then the telemetry run-end record carrying *extra*."""
        report = self.slo.evaluate(objectives, experiment=self.scenario)
        self.telemetry.finalize_run(extra={"scenario": self.scenario, **extra})
        return report


def summarize(
    result: Any,
    *,
    counted: Sequence[str] = (),
    derived: Sequence[str] = (),
    omit: Sequence[str] = (),
    rounding: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """JSON-ready summary of a result dataclass, derived from its fields.

    *counted* list fields are reported as ``<singular>_count`` (the
    full streams live in the telemetry artifact); *derived* adds
    properties; *omit* drops live handles; *rounding* maps a key to its
    decimal places.  ``slo_report`` never appears: callers write it as
    its own ``slo.json``.
    """
    summary: Dict[str, Any] = {}
    for spec in dataclasses.fields(result):
        name, value = spec.name, getattr(result, spec.name)
        if name == "slo_report" or name in omit:
            continue
        if name in counted:
            summary[name[:-1] + "_count"] = len(value)
        else:
            summary[name] = value.copy() if isinstance(value, (dict, list)) else value
    for name in derived:
        summary[name] = getattr(result, name)
    for name, digits in (rounding or {}).items():
        if summary[name] is not None:
            summary[name] = round(summary[name], digits)
    return summary


# -- what the scenario gates share ----------------------------------------


def print_summary(title: str, summary: Dict[str, Any], keys: Sequence[str]) -> None:
    """The gate's human-readable digest: *keys* of *summary*, aligned."""
    print(title)
    print("=" * len(title))
    width = max(len(key) for key in keys) + 1
    for key in keys:
        print(f"  {key:{width}s} {summary[key]}")


def write_verdict(report: SloReport, out_dir: str, problems: List[str]) -> List[str]:
    """How every judged gate ends: ``slo.json`` beside the run's other
    artifacts, and the verdict's problems after the drill's own."""
    write_slo(report, out_dir)
    return problems + report.problems()


def write_json(payload: Dict[str, Any], out_dir: str, name: str) -> str:
    """Write one deterministic JSON artifact; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
