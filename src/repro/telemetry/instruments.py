"""Standard instrumentation of the PProx stack.

All helpers here are duck-typed (no imports from ``repro.proxy`` /
``repro.lrs`` / ``repro.workload``, so the telemetry package never
participates in an import cycle) and callback-based: instruments read
the counters the components already maintain, at collect time only.
The single hot-path exceptions are the shuffle flush-size histogram
(one ``observe`` per batch flush), the tracer's batch span (one per UA
flush) and the client latency histogram (one per completed call) —
all far off the per-message fast path.

Metric naming convention: ``pprox_<subsystem>_<quantity>[_total]``
with role/instance labels, e.g.
``pprox_proxy_requests_total{instance="pprox-ua-0",role="ua"}``.

The privacy-health gauges surface the paper's §4.3 guarantee live:

* ``pprox_shuffle_batch_fill`` — mean size of the most recent flush
  across all shuffle buffers (the effective ``S``; timer-expired
  flushes drag it below the configured size);
* ``pprox_effective_anonymity_set`` — fill × number of IA instances,
  the ``S·I`` bound on the adversary's correlation probability
  ``1/(S·I)``;
* ``pprox_shuffle_time_to_flush_seconds`` — worst-case residual wait
  until a pending batch is forced out by its timer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.causal import instrument_causal

__all__ = [
    "instrument_service",
    "instrument_crypto",
    "instrument_lrs",
    "instrument_injector",
    "instrument_network",
    "instrument_recovery",
    "instrument_overload",
    "instrument_rotation",
    "instrument_stack",
]


def _shuffle_buffers(service: Any) -> List[Any]:
    buffers = [
        instance.shuffle_buffer
        for instance in list(service.ua_instances) + list(service.ia_instances)
    ]
    return [buffer for buffer in buffers if buffer is not None]


def _instrument_instances(registry: Any, role: str, instances: Iterable[Any]) -> None:
    for instance in instances:
        labels = {"role": role, "instance": instance.name}
        registry.counter(
            "pprox_proxy_requests_total",
            "Requests transformed and forwarded by a proxy instance.",
            labels,
            callback=lambda inst=instance: inst.requests_processed,
        )
        registry.counter(
            "pprox_proxy_responses_total",
            "Responses transformed on the return path.",
            labels,
            callback=lambda inst=instance: inst.responses_processed,
        )
        registry.gauge(
            "pprox_proxy_pending",
            "Outstanding work at a proxy instance (queue+routing+buffer).",
            labels,
            callback=lambda inst=instance: inst.pending,
        )
        registry.gauge(
            "pprox_node_utilization_ratio",
            "Fraction of host-node core time spent busy.",
            labels,
            callback=lambda inst=instance: inst.node.utilization(),
        )
        registry.gauge(
            "pprox_node_queue_length",
            "Jobs waiting for a free core on the host node.",
            labels,
            callback=lambda inst=instance: inst.node.queue_length,
        )
        registry.counter(
            "pprox_enclave_ecalls_total",
            "Enclave entry transitions (sealed-secret accesses).",
            labels,
            callback=lambda inst=instance: inst.enclave.ecall_count,
        )
        registry.counter(
            "pprox_enclave_ocalls_total",
            "Enclave exit transitions (outbound sends).",
            labels,
            callback=lambda inst=instance: getattr(inst.enclave, "ocall_count", 0),
        )
        registry.gauge(
            "pprox_instance_up",
            "1 while the proxy instance is alive, 0 after a crash.",
            labels,
            callback=lambda inst=instance: 1 if inst.alive else 0,
        )


def _instrument_buffers(registry: Any, buffers: Iterable[Any]) -> None:
    for buffer in buffers:
        labels = {"buffer": buffer.name}
        registry.counter(
            "pprox_shuffle_flushes_total",
            "Shuffle batch flushes (size-triggered and timer-triggered).",
            labels,
            callback=lambda buf=buffer: buf.flushes,
        )
        registry.counter(
            "pprox_shuffle_timer_flushes_total",
            "Shuffle flushes forced by timeout before the batch filled.",
            labels,
            callback=lambda buf=buffer: buf.timer_flushes,
        )
        registry.gauge(
            "pprox_shuffle_occupancy",
            "Entries currently sitting in a shuffle buffer.",
            labels,
            callback=lambda buf=buffer: buf.pending,
        )


def instrument_service(telemetry: Any, service: Any) -> None:
    """Register instruments over a :class:`PProxService` deployment,
    and over each shard a fleet adds later."""
    registry = telemetry.registry

    for role, instances in (("ua", service.ua_instances), ("ia", service.ia_instances)):
        _instrument_instances(registry, role, instances)

    for balancer in (service.ua_balancer, service.ia_balancer):
        registry.counter(
            "pprox_lb_decisions_total",
            "Pick decisions made by a load balancer.",
            {"balancer": balancer.name},
            callback=lambda lb=balancer: lb.decisions,
        )

    buffers = _shuffle_buffers(service)
    _instrument_buffers(registry, buffers)

    flush_hist = registry.histogram(
        "pprox_shuffle_flush_size",
        "Distribution of shuffle batch sizes at flush time.",
        buckets=(1, 2, 4, 8, 16, 32, 64, 128),
    )

    def observe_flushes(buffers: Iterable[Any]) -> None:
        for buffer in buffers:
            buffer.chain_on_flush(lambda size, timer_fired: flush_hist.observe(size))

    observe_flushes(buffers)

    def instrument_shard(shard: Any) -> None:
        _instrument_instances(registry, "ua", shard.ua_instances)
        _instrument_instances(registry, "ia", shard.ia_instances)
        added = _shuffle_buffers(shard)
        _instrument_buffers(registry, added)
        observe_flushes(added)

    service.shard_hooks.append(instrument_shard)

    # The tracer's view past the shuffle: one aggregate-only batch span
    # per UA flush, chained behind the histogram.
    instrument_causal(telemetry.tracer, service)

    # -- live privacy-health gauges (§4.3) ------------------------------

    def batch_fill() -> float:
        sizes = [
            buffer.last_flush_size
            for buffer in _shuffle_buffers(service)
            if buffer.last_flush_size is not None
        ]
        if not sizes:
            return 0.0
        return sum(sizes) / len(sizes)

    registry.gauge(
        "pprox_shuffle_batch_fill",
        "Mean size of the most recent shuffle flush (effective S).",
        callback=batch_fill,
    )
    registry.gauge(
        "pprox_effective_anonymity_set",
        "Effective anonymity set S*I bounding correlation probability 1/(S*I).",
        callback=lambda: batch_fill() * max(1, len(service.ia_instances)),
    )

    def time_to_flush() -> float:
        now = telemetry.now()
        waits = [
            buffer.time_to_flush(now)
            for buffer in _shuffle_buffers(service)
            if buffer.time_to_flush(now) is not None
        ]
        return max(waits) if waits else 0.0

    registry.gauge(
        "pprox_shuffle_time_to_flush_seconds",
        "Longest residual wait until a pending batch is timer-flushed.",
        callback=time_to_flush,
    )


def instrument_crypto(telemetry: Any, provider: Any) -> None:
    """Register pseudonym-memo cache instruments (one stats call per tick).

    The sim provider, which drills run, is skipped.
    """
    if provider.name == "sim":
        return
    registry = telemetry.registry
    # All six instruments read one snapshot per virtual instant: the
    # memo is keyed on telemetry.now(), so a scrape tick (or a render)
    # costs a single cache_stats() call, not one per instrument.
    memo: Dict[str, Any] = {"at": None, "stats": None}

    def stats() -> Dict[str, Dict[str, int]]:
        now = telemetry.now()
        if memo["at"] != now:
            memo["stats"] = provider.cache_stats()
            memo["at"] = now
        return memo["stats"]

    for operation in ("pseudonymize", "depseudonymize"):
        labels = {"operation": operation}
        registry.counter(
            "pprox_crypto_cache_hits_total",
            "Pseudonym-memo cache hits.",
            labels,
            callback=lambda op=operation: stats()[op]["hits"],
        )
        registry.counter(
            "pprox_crypto_cache_misses_total",
            "Pseudonym-memo cache misses.",
            labels,
            callback=lambda op=operation: stats()[op]["misses"],
        )
        registry.gauge(
            "pprox_crypto_cache_size",
            "Entries currently memoized.",
            labels,
            callback=lambda op=operation: stats()[op]["size"],
        )


def instrument_lrs(telemetry: Any, lrs: Any) -> None:
    """Register request counters over an LRS stub or Harness service."""
    registry = telemetry.registry
    frontends = getattr(lrs, "frontends", None)
    backends: Iterable[Any] = frontends if frontends else (lrs,)
    for backend in backends:
        if not hasattr(backend, "requests_served"):
            continue
        registry.counter(
            "pprox_lrs_requests_total",
            "Recommendation requests served by an LRS backend.",
            {"backend": getattr(backend, "address", "lrs")},
            callback=lambda be=backend: be.requests_served,
        )


def instrument_injector(telemetry: Any, injector: Any) -> None:
    """Register workload counters and the end-to-end latency histogram."""
    registry = telemetry.registry
    report = injector.report
    for quantity in ("issued", "completed", "failed"):
        registry.counter(
            f"pprox_workload_{quantity}_total",
            f"Calls {quantity} by the workload injector.",
            callback=lambda rep=report, q=quantity: getattr(rep, q),
        )
    latency_hist = registry.histogram(
        "pprox_request_latency_seconds",
        "End-to-end client-observed request latency.",
    )
    if hasattr(injector, "latency_observer"):
        injector.latency_observer = latency_hist.observe


def instrument_network(telemetry: Any, network: Any) -> None:
    """Register aggregate traffic counters over the simulated network."""
    registry = telemetry.registry
    registry.counter(
        "pprox_network_messages_total",
        "Messages delivered by the simulated network.",
        callback=lambda: network.messages_sent,
    )
    registry.counter(
        "pprox_network_bytes_total",
        "Serialized payload bytes carried by the simulated network.",
        callback=lambda: network.bytes_sent,
    )
    registry.counter(
        "pprox_network_dropped_total",
        "Messages lost to injected faults (partitions, loss windows).",
        callback=lambda: network.messages_dropped,
    )


def instrument_recovery(
    telemetry: Any,
    *,
    monitor: Any = None,
    client: Any = None,
    supervisor: Any = None,
) -> None:
    """Register failover/recovery instruments over the chaos plumbing.

    *monitor* is a :class:`repro.cluster.health.HealthMonitor` (which
    also feeds the ``pprox_recovery_seconds`` histogram directly, at
    readmission time), *client* a :class:`repro.client.library.
    PProxClient` with per-call outcome counters, *supervisor* a
    :class:`repro.faults.supervisor.FaultSupervisor`.
    """
    registry = telemetry.registry
    if monitor is not None:
        registry.counter(
            "pprox_failovers_total",
            "Dead backends ejected from a load balancer by health probes.",
            callback=lambda: monitor.failovers,
        )
        registry.counter(
            "pprox_readmissions_total",
            "Recovered backends readmitted to a load balancer.",
            callback=lambda: len(monitor.readmitted),
        )
    if client is not None:
        for outcome in getattr(client, "outcomes", {}):
            registry.counter(
                "pprox_request_outcome_total",
                "Completed client calls by outcome class.",
                {"outcome": outcome},
                callback=lambda cl=client, oc=outcome: cl.outcomes[oc],
            )
        registry.counter(
            "pprox_client_retryable_errors_total",
            "Retryable error responses seen by the client library.",
            callback=lambda: client.retryable_errors,
        )
        registry.counter(
            "pprox_client_hedges_total",
            "Hedged attempts launched by the client library.",
            callback=lambda: client.hedges_launched,
        )
    if supervisor is not None:
        registry.counter(
            "pprox_faults_injected_total",
            "Enclave crashes injected by the fault supervisor.",
            {"kind": "crash"},
            callback=lambda: supervisor.crashes_injected,
        )
        registry.counter(
            "pprox_fault_windows_total",
            "Network/LRS fault windows opened by the fault supervisor.",
            callback=lambda: supervisor.windows_opened,
        )
        registry.counter(
            "pprox_fault_restarts_total",
            "Crashed instances restarted (re-attested, re-provisioned).",
            callback=lambda: supervisor.restarts_completed,
        )


def instrument_overload(telemetry: Any, *, service: Any = None, guard: Any = None) -> None:
    """Register overload-protection instruments.

    *service* is a :class:`PProxService` whose instances may carry a
    bounded ingress queue (overload mode); one without is flagged by
    the ``pprox_queue_unbounded`` warning gauge.  *guard* is
    a :class:`repro.overload.guard.GuardedLrs` wrapping the LRS edge.

    Shed volumes and sojourn/deadline distributions are push-style
    (observer hooks set on the instances); everything else is read via
    collect-time callbacks.  Labels carry role/instance/stage/reason
    only — never user or item identifiers — so every series passes the
    role-aware redaction audit unscrubbed.
    """
    registry = telemetry.registry
    if service is not None:
        sojourn_hist = registry.histogram(
            "pprox_queue_sojourn_seconds",
            "Time admitted requests spent waiting in a bounded ingress queue.",
            buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
        )
        deadline_hist = registry.histogram(
            "pprox_deadline_remaining_seconds",
            "Budget remaining on requests as they arrive at a proxy layer.",
            buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        )
        for role, instances in (
            ("ua", service.ua_instances),
            ("ia", service.ia_instances),
        ):
            for instance in instances:
                labels = {"role": role, "instance": instance.name}

                def on_shed(
                    stage: str,
                    reason: str,
                    _labels: Dict[str, str] = labels,
                ) -> None:
                    registry.counter(
                        "pprox_shed_total",
                        "Requests shed by the overload-protection subsystem.",
                        {**_labels, "stage": stage, "reason": reason},
                    ).inc()

                instance.shed_observer = on_shed
                instance.deadline_observer = deadline_hist.observe
                queue = getattr(instance, "ingress", None)
                registry.gauge(
                    "pprox_queue_unbounded",
                    "1 when an instance still runs a legacy unbounded ingress "
                    "queue (no overload protection), 0 when bounded.",
                    labels,
                    callback=lambda inst=instance: 1 if inst.ingress is None else 0,
                )
                if queue is None:
                    continue
                registry.gauge(
                    "pprox_queue_depth",
                    "Entries waiting in a bounded ingress queue.",
                    labels,
                    callback=lambda inst=instance: (
                        inst.ingress.depth if inst.ingress is not None else 0
                    ),
                )
                queue.on_pop = sojourn_hist.observe
    if guard is not None:
        registry.gauge(
            "pprox_breaker_state",
            "IA->LRS circuit-breaker state (0 closed / 1 open / 2 half-open).",
            callback=lambda: guard.breaker.state,
        )
        registry.counter(
            "pprox_breaker_trips_total",
            "Times the IA->LRS circuit breaker opened.",
            callback=lambda: guard.breaker.trips,
        )
        registry.gauge(
            "pprox_limiter_limit",
            "Current AIMD concurrency limit on the IA->LRS edge.",
            callback=lambda: guard.limiter.limit,
        )
        for reason, attribute in (
            ("breaker", "breaker_rejections"),
            ("limiter", "limiter_rejections"),
            ("deadline", "expired_rejections"),
        ):
            registry.counter(
                "pprox_shed_total",
                "Requests shed by the overload-protection subsystem.",
                {"role": "lrs", "stage": "lrs_guard", "reason": reason},
                callback=lambda g=guard, attr=attribute: getattr(g, attr),
            )


def instrument_rotation(telemetry: Any, rotation: Any) -> None:
    """Register epoch-rotation drill instruments.

    *rotation* is a :class:`repro.proxy.epochs.RotationCoordinator`
    (duck-typed).  All instruments are collect-time callbacks over the
    coordinator's own bookkeeping — nothing here touches the request
    path — and labels carry only the rotating layer name, never key
    material or identifiers, so every series passes the redaction
    audit unscrubbed.
    """
    registry = telemetry.registry
    labels = {"layer": rotation.layer}
    registry.gauge(
        "pprox_rotation_state",
        "Rotation drill state (index into ROTATION_STATES; reports the "
        "'paused' index while the drill is stalled).",
        labels,
        callback=lambda: rotation.state_code,
    )
    registry.gauge(
        "pprox_rekey_progress_ratio",
        "Fraction of the pre-announce LRS prefix re-encrypted under the "
        "new epoch (cut-over barrier reaches 1.0).",
        labels,
        callback=lambda: rotation.progress_ratio,
    )
    registry.gauge(
        "pprox_dual_epoch_window_seconds",
        "How long the dual-epoch acceptance window has been open "
        "(0 before the announce; frozen at retirement).",
        labels,
        callback=lambda: rotation.dual_window_seconds,
    )
    registry.counter(
        "pprox_rotation_pauses_total",
        "Times the drill paused rather than risk the anonymity floor "
        "(instance down, thin flush, or overload).",
        labels,
        callback=lambda: rotation.pauses,
    )
    registry.counter(
        "pprox_epoch_reprovisions_total",
        "Stale alive enclaves healed by the coordinator's idempotent "
        "re-announce (missed-announcement / partition path).",
        labels,
        callback=lambda: rotation.reprovisions,
    )


def instrument_stack(
    telemetry: Any,
    *,
    service: Any = None,
    provider: Any = None,
    lrs: Any = None,
    injector: Any = None,
    network: Any = None,
    monitor: Any = None,
    client: Any = None,
    supervisor: Any = None,
    guard: Any = None,
    rotation: Any = None,
) -> None:
    """Instrument whichever stack components the caller has on hand."""
    if service is not None:
        instrument_service(telemetry, service)
    if provider is not None:
        instrument_crypto(telemetry, provider)
    if lrs is not None:
        instrument_lrs(telemetry, lrs)
    if injector is not None:
        instrument_injector(telemetry, injector)
    if network is not None:
        instrument_network(telemetry, network)
    if monitor is not None or client is not None or supervisor is not None:
        instrument_recovery(
            telemetry, monitor=monitor, client=client, supervisor=supervisor
        )
    if service is not None or guard is not None:
        instrument_overload(telemetry, service=service, guard=guard)
    if rotation is not None:
        instrument_rotation(telemetry, rotation)
