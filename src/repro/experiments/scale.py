"""Million-user proxy-scaling sweep (the Figure-8 shape at 1000x rate).

The paper's Figure 8 sweeps 1-4 UA+IA proxy pairs at up to 1000 RPS
against a stub LRS and shows throughput scaling linearly with proxy
instances.  This experiment reruns that shape at the scale the related
work treats as table stakes — a synthetic population of >= 1 million
users and ~100k requests per second sustained through the pipeline —
which is only tractable because of the calendar-queue engine
(:class:`repro.simnet.clock.EventLoop`): the sweep is pure scheduler
hot path, tens of millions of events per run.

The pipeline is deliberately lightweight: real :class:`SimNode`
service stations for UA/IA/LRS, the real :class:`Network` fabric (flow
recording off — nobody observes this wire, so ``send`` skips the
per-hop ``FlowRecord``), the real least-pending :class:`LoadBalancer`,
PProx-style request shuffling (size-S batches with a flush timeout),
and a per-request deadline timer that is cancelled on completion —
the cancel-heavy churn profile the engine is optimized for.  Service
times use the post-crypto-overhaul fast profile (PR 1 made the crypto
~3 orders of magnitude cheaper, so the enclave transition no longer
dominates); the sweep measures the *engine*, not the cost model.

Latency is recorded exactly, in the same
:class:`~repro.simnet.metrics.LatencyRecorder` every other experiment
uses (16 bytes a sample: 16 MB at the 1M-request top point), and each
point's candlestick is taken over completions inside ``[trim,
duration - trim]``.

Determinism: every scheduling decision flows through the public loop
API and every random draw happens inside event callbacks, so the
artifact is byte-identical across same-seed runs — and on any loop
that honours the ``(time, sequence)`` contract, which
``tests/test_scale_scenario.py`` holds against the heap oracle.
Wall-clock-dependent numbers (events/sec, peak resident queue,
compactions) go in a separate meta report that is *not* part of the
diffable artifact.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.rig import write_json, write_verdict
from repro.obs.slo import Objective, SloReport, evaluate_static, run_end_objectives
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LeastPendingPolicy, LoadBalancer
from repro.simnet.metrics import LatencyRecorder
from repro.simnet.network import LatencyModel, Network
from repro.simnet.node import SimNode
from repro.simnet.rng import RngRegistry

__all__ = [
    "ScaleConfig",
    "ScalePoint",
    "run_scale_sweep",
    "scale_slo_objectives",
    "scale_slo_verdict",
    "gate",
    "SMOKE_CONFIG",
    "FULL_CONFIG",
]


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for one sweep (all virtual-time; see module docstring)."""

    seed: int = 20260808
    users: int = 1_000_000
    #: Proxy pairs per sweep point (Figure-8 x-axis).
    pairs_sweep: Tuple[int, ...] = (1, 2, 4)
    #: Offered load per proxy pair; the top point sustains
    #: ``max(pairs_sweep) * rate_per_pair`` RPS.
    rate_per_pair: float = 25_000.0
    #: Injection window per sweep point, virtual seconds.
    duration: float = 10.0
    #: Seconds trimmed from each end of the measurement window.
    trim: float = 1.0
    #: PProx shuffle batch size (requests buffered per UA before the
    #: IA hop).
    shuffle_size: int = 8
    #: Per-request deadline; expired requests count as failed.
    deadline: float = 0.5

    @property
    def peak_rps(self) -> float:
        return max(self.pairs_sweep) * self.rate_per_pair


#: Anti-starvation timeout of a partly filled shuffle buffer, seconds.
FLUSH_TIMEOUT = 0.004

#: The full acceptance configuration: 1M users, 100k RPS at the top.
FULL_CONFIG = ScaleConfig()

#: Reduced configuration for CI and the heap-oracle parity test.
SMOKE_CONFIG = ScaleConfig(users=200_000, pairs_sweep=(1, 2), duration=3.0, trim=0.5)


@dataclass
class ScalePoint:
    """Results of one sweep point (deterministic fields only)."""

    pairs: int
    offered_rps: float
    issued: int = 0
    completed: int = 0
    expired: int = 0
    unique_users: int = 0
    shuffle_flushes: int = 0
    timeout_flushes: int = 0
    min_flush_fill: Optional[int] = None
    latency: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _run_point(config: ScaleConfig, pairs: int) -> Tuple[ScalePoint, Dict[str, object]]:
    loop = EventLoop()
    rng = RngRegistry(config.seed * 1000 + pairs)
    network = Network(loop=loop, rng=rng.stream("network"))
    arrivals = rng.stream("arrivals")
    service = rng.stream("service")

    ua_nodes = [SimNode(name=f"ua-{i}", loop=loop, cores=4) for i in range(pairs)]
    ia_nodes = [SimNode(name=f"ia-{i}", loop=loop, cores=4) for i in range(pairs)]
    lrs_nodes = [SimNode(name=f"lrs-{i}", loop=loop, cores=8) for i in range(2 * pairs)]
    balancer: LoadBalancer = LoadBalancer(name="ua-pool", policy=LeastPendingPolicy())
    for index in range(pairs):
        balancer.add(_PairBackend(index, ua_nodes[index]))
    lrs_rr = [0]

    rate = pairs * config.rate_per_pair
    interval = 1.0 / rate
    total = int(rate * config.duration)
    point = ScalePoint(pairs=pairs, offered_rps=rate)
    recorder = LatencyRecorder(f"scale-{pairs}")
    touched = bytearray(config.users)

    # Per-UA shuffle buffers: [items, pending flush timer handle].
    shufflers: List[list] = [[[], None] for _ in range(pairs)]
    shuffle_size = config.shuffle_size

    post = loop.post
    uniform = arrivals.uniform
    randrange = arrivals.randrange
    expo = service.expovariate

    def flush(ua_index: int, timed_out: bool) -> None:
        buffer, handle = shufflers[ua_index]
        if handle is not None and not timed_out:
            handle.cancel()
        shufflers[ua_index][1] = None
        if not buffer:
            return
        fill = len(buffer)
        point.shuffle_flushes += 1
        if timed_out:
            point.timeout_flushes += 1
        if point.min_flush_fill is None or fill < point.min_flush_fill:
            point.min_flush_fill = fill
        shufflers[ua_index][0] = []
        ia = ia_nodes[ua_index]
        for forward in buffer:
            network.send(
                f"ua-{ua_index}", f"ia-{ua_index}", forward, 256,
                lambda fwd: ia.submit(0.00002 + expo(1.0) * 0.00002, fwd),
            )

    def finish(start: float, deadline_handle) -> None:
        deadline_handle.cancel()
        point.completed += 1
        recorder.record(loop.now, loop.now - start)

    def at_lrs(job: Callable[[], None]) -> None:
        index = lrs_rr[0]
        lrs_rr[0] = (index + 1) % len(lrs_nodes)
        node = lrs_nodes[index]
        network.send("ia", f"lrs-{index}", job, 384,
                     lambda j: node.submit(0.00006 + expo(1.0) * 0.00004, j))

    def expire() -> None:
        point.expired += 1

    def arrival() -> None:
        issued = point.issued
        point.issued = issued + 1
        user = randrange(config.users)
        touched[user] = 1
        start = loop.now
        deadline_handle = loop.schedule(config.deadline, expire)
        backend = balancer.pick()
        ua_index = backend.index
        node = backend.node

        def after_lrs() -> None:
            network.send("lrs", "client", None, 512,
                         lambda _: finish(start, deadline_handle))

        def after_ia() -> None:
            at_lrs(after_lrs)

        def at_ua() -> None:
            node.submit(0.00003 + expo(1.0) * 0.00003, lambda: enqueue(ua_index, after_ia))

        network.send("client", f"ua-{ua_index}", None, 192, lambda _: at_ua())
        if issued + 1 < total:
            post(interval + uniform(0.0, interval * 0.1), arrival)

    def enqueue(ua_index: int, forward: Callable[[], None]) -> None:
        buffer, handle = shufflers[ua_index]
        buffer.append(forward)
        if len(buffer) >= shuffle_size:
            flush(ua_index, False)
        elif handle is None:
            shufflers[ua_index][1] = loop.schedule(
                FLUSH_TIMEOUT, lambda: flush(ua_index, True)
            )

    post(0.0, arrival)
    wall_start = time.perf_counter()
    loop.run(max_events=200_000_000)
    wall = time.perf_counter() - wall_start

    point.unique_users = sum(touched)
    summary = recorder.summarize(recorder.trimmed(config.trim, config.duration - config.trim))
    point.latency = {
        "p25": summary.p25,
        "median": summary.median,
        "p75": summary.p75,
        "p99": summary.p99,
        "mean": summary.mean,
        "max": summary.maximum,
        "window_count": summary.count,
    }
    stats = loop.queue_stats()
    meta = {
        "pairs": pairs,
        "wall_seconds": wall,
        "events_processed": loop.events_processed,
        "events_per_second": loop.events_processed / wall if wall > 0 else 0.0,
        "sim_seconds_per_wall_second": loop.now / wall if wall > 0 else 0.0,
        "final_virtual_time": loop.now,
        "peak_pending": stats.get("peak_pending"),
        "compactions": stats.get("compactions"),
        "cancels_total": stats.get("cancels_total"),
    }
    return point, meta


class _PairBackend:
    """Least-pending view over one UA node (the pair's front door)."""

    __slots__ = ("index", "node")

    def __init__(self, index: int, node: SimNode) -> None:
        self.index = index
        self.node = node

    @property
    def pending(self) -> int:
        return self.node.pending


def run_scale_sweep(config: ScaleConfig = FULL_CONFIG) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run the sweep; returns ``(artifact, meta)``.

    *artifact* is deterministic — byte-identical for the same seed.
    *meta* carries the wall-clock-dependent numbers and must never be
    diffed.
    """
    points: List[ScalePoint] = []
    metas: List[Dict[str, object]] = []
    for pairs in config.pairs_sweep:
        point, meta = _run_point(config, pairs)
        points.append(point)
        metas.append(meta)
    artifact: Dict[str, object] = {
        "experiment": "scale",
        "seed": config.seed,
        "users": config.users,
        "rate_per_pair": config.rate_per_pair,
        "duration": config.duration,
        "shuffle_size": config.shuffle_size,
        "deadline": config.deadline,
        "points": [point.to_dict() for point in points],
    }
    meta: Dict[str, object] = {
        "points": metas,
        "total_wall_seconds": sum(m["wall_seconds"] for m in metas),
        "total_events": sum(m["events_processed"] for m in metas),
    }
    return artifact, meta


#: Floors on full-size flushes / flushes and on completed / issued.
FULL_BATCH_FLOOR = 0.995
COMPLETION_FLOOR = 0.98


def scale_slo_objectives(deadline: float) -> List[Objective]:
    """The scale sweep's objectives, evaluated *statically*.

    The sweep is the engine's perf-floor hot path, so no live sampler
    ever attaches to it — :func:`scale_slo_verdict` judges the same
    objective shapes against the finished artifact's totals instead
    (burn fields stay null).  Anonymity at scale is a full-batch ratio:
    timer flushes (partial batches at the drain tail) must stay under
    ``1 - FULL_BATCH_FLOOR`` of all shuffle flushes; the p99 ceiling is
    the sweep's per-request *deadline*.  Over the whole sweep, no
    request may miss that deadline or go missing, and an empty sweep
    proves nothing: it must have issued a request.
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=COMPLETION_FLOOR,
            good="completed",
            total="issued",
            description="Fraction of issued calls completed inside the deadline.",
        ),
        Objective(
            name="anonymity_floor",
            kind="ratio",
            target=FULL_BATCH_FLOOR,
            good="full_flushes",
            total="shuffle_flushes",
            description="Fraction of shuffle flushes at full size S.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=deadline,
            value="p99_latency_seconds",
            description="Worst per-point p99 latency across the sweep.",
        ),
    ] + run_end_objectives(
        ("issued", "at_least", 1, "The sweep issued a request."),
        ("expired", "equal", 0, "No request missed the deadline."),
        ("lost", "equal", 0, "Every issued request completed (issued - completed)."),
    )


def scale_slo_verdict(artifact: Dict[str, object]) -> SloReport:
    """Static SLO verdict over a finished sweep's diffable artifact."""
    points = artifact.get("points", [])
    issued = sum(int(p["issued"]) for p in points)
    completed = sum(int(p["completed"]) for p in points)
    shuffle_flushes = sum(int(p["shuffle_flushes"]) for p in points)
    timeout_flushes = sum(int(p["timeout_flushes"]) for p in points)
    p99 = max((float(p["latency"]["p99"]) for p in points), default=0.0)
    return evaluate_static(
        scale_slo_objectives(float(artifact["deadline"])),
        {
            "issued": float(issued),
            "completed": float(completed),
            "shuffle_flushes": float(shuffle_flushes),
            "full_flushes": float(shuffle_flushes - timeout_flushes),
            "p99_latency_seconds": p99,
            "expired": float(sum(int(p["expired"]) for p in points)),
            "lost": float(issued - completed),
        },
        experiment="scale",
    )


def gate(out_dir: str) -> List[str]:
    """``repro run scale``: the CI-sized sweep (:data:`SMOKE_CONFIG`)
    as ``scale.json`` (diffable) + ``scale_meta.json`` (not), and the
    static verdict over it (``slo.json``), the gate's whole verdict.  The 1M-user acceptance
    sweep is ``run_scale_sweep(FULL_CONFIG)``."""
    config = SMOKE_CONFIG
    print(
        f"scale sweep: users={config.users:,}"
        f" pairs={config.pairs_sweep} peak={config.peak_rps:,.0f} rps"
        f" duration={config.duration}s"
    )
    artifact, meta = run_scale_sweep(config)
    for point, point_meta in zip(artifact["points"], meta["points"]):
        latency = point["latency"]
        print(
            f"  pairs={point['pairs']} offered={point['offered_rps']:10,.0f} rps"
            f" completed={point['completed']:8d}"
            f" med={latency['median'] * 1000:6.2f}ms p99={latency['p99'] * 1000:6.2f}ms"
            f" | {point_meta['events_per_second']:10,.0f} ev/s"
            f" wall={point_meta['wall_seconds']:6.1f}s"
        )
    write_json(artifact, out_dir, "scale.json")
    write_json(meta, out_dir, "scale_meta.json")
    return write_verdict(scale_slo_verdict(artifact), out_dir)
