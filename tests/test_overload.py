"""Overload protection: breaker, limiter, admission, deadlines, guard.

Unit coverage of :mod:`repro.overload` plus the layer-level behaviours
it hooks into: typed NoUpstream rejection at the UA, uniform rejects
on every shed path, and the client's single-budget deadline semantics
across retries and hedges (satellite of the overload PR).
"""

from __future__ import annotations

import pytest

from repro.context import Deployment, SimContext
from repro.faults import BrownoutLrs
from repro.lrs.stub import StubLrs
from repro.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEADLINE_FIELD,
    DEADLINE_WIDTH,
    MAX_DEADLINE,
    AdmissionController,
    AimdLimiter,
    CircuitBreaker,
    GuardedLrs,
    OverloadPolicy,
    OverloadSignal,
    charge,
    decode_deadline,
    encode_deadline,
    is_uniform_reject,
    reject_size_bytes,
    stamp_deadline,
    uniform_reject,
)
from repro.privacy.wire import hop_of
from repro.proxy import PProxConfig
from repro.rest.messages import make_get


# -- circuit breaker ----------------------------------------------------


def test_breaker_trips_after_failure_streak():
    breaker = CircuitBreaker(failure_threshold=3)
    assert breaker.state == BREAKER_CLOSED
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 1
    assert not breaker.allow()


def test_breaker_success_resets_the_streak():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED  # streak broken, no trip


def test_breaker_half_open_probe_recloses_on_success():
    now = [0.0]
    breaker = CircuitBreaker(
        clock=lambda: now[0], failure_threshold=1, reset_timeout=1.0
    )
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    now[0] = 0.5
    assert not breaker.allow()  # still inside the reset window
    now[0] = 1.0
    assert breaker.allow()  # the half-open probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert not breaker.allow()  # only one probe allowed
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_breaker_half_open_failure_reopens():
    now = [0.0]
    breaker = CircuitBreaker(
        clock=lambda: now[0], failure_threshold=1, reset_timeout=1.0
    )
    breaker.record_failure()
    now[0] = 1.5
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 2
    assert breaker.opened_at == 1.5  # reset window restarts from now


# -- AIMD limiter -------------------------------------------------------


def test_aimd_rejects_at_limit_and_releases():
    limiter = AimdLimiter(initial=2.0)
    assert limiter.try_acquire() and limiter.try_acquire()
    assert not limiter.try_acquire()
    assert limiter.rejected_total == 1
    limiter.release(True)
    assert limiter.try_acquire()


def test_aimd_additive_increase_multiplicative_decrease():
    limiter = AimdLimiter(initial=8.0, max_limit=64.0)
    limiter.try_acquire()
    limiter.release(True)
    assert limiter.limit == pytest.approx(8.0 + 1.0 / 8.0)
    limiter.try_acquire()
    limiter.release(False)
    assert limiter.limit == pytest.approx((8.0 + 1.0 / 8.0) * 0.5)
    assert limiter.backoffs == 1


def test_aimd_clamps_to_bounds():
    limiter = AimdLimiter(initial=1.0, min_limit=1.0, max_limit=2.0)
    limiter.try_acquire()
    limiter.release(False)
    assert limiter.limit == 1.0  # never below min
    for _ in range(50):
        limiter.try_acquire()
        limiter.release(True)
    assert limiter.limit == 2.0  # never above max


# -- admission control --------------------------------------------------


def test_admission_guards_sojourn_and_pressure():
    controller = AdmissionController(max_sojourn=0.25, max_pressure=1.0)
    assert controller.admit(OverloadSignal()) is None
    assert controller.admit(OverloadSignal(queue_sojourn=0.3)) == "sojourn"
    assert controller.admit(OverloadSignal(epc_pressure=1.5)) == "epc_pressure"
    # Depth is the bounded ingress queue's to shed, not admission's.
    assert controller.admit(OverloadSignal(queue_depth=10_000)) is None
    assert controller.admitted == 2 and controller.rejected == 2
    assert controller.rejected_by_reason == {"sojourn": 1, "epc_pressure": 1}


# -- deadline budgets ---------------------------------------------------


def test_deadline_encoding_is_fixed_width():
    for value in (0.0, 0.5, 1.234567, 99.9, MAX_DEADLINE, MAX_DEADLINE * 2, -3.0):
        assert len(encode_deadline(value)) == DEADLINE_WIDTH
    assert encode_deadline(-3.0) == encode_deadline(0.0)  # clamped


def test_stamp_decode_roundtrip_and_charge():
    request = make_get("alice")
    stamped = stamp_deadline(request, 0.75)
    assert decode_deadline(stamped) == pytest.approx(0.75)
    assert DEADLINE_FIELD not in request.fields  # original untouched
    assert stamp_deadline(request, None) is request
    assert decode_deadline(request) is None
    assert charge(0.75, 0.5) == pytest.approx(0.25)
    assert charge(None, 0.5) is None
    assert charge(0.75, -1.0) == pytest.approx(0.75)  # elapsed never negative


# -- the uniform reject -------------------------------------------------


def test_uniform_reject_is_constant_size_and_canonical():
    one, two = uniform_reject(1), uniform_reject(987654)
    assert one.fields == two.fields
    assert one.size_bytes() == two.size_bytes() == reject_size_bytes()
    assert is_uniform_reject(one)
    assert not one.ok and one.fields["retryable"] is True
    # No cause ever travels: the canonical body has exactly these keys.
    assert sorted(one.fields) == ["error", "pad", "retryable"]


# -- GuardedLrs ---------------------------------------------------------


def _guarded(ctx, inner=None, limiter=None, **breaker_options):
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    wrapped = inner(stub) if inner is not None else stub
    guard = GuardedLrs(
        inner=wrapped,
        breaker=CircuitBreaker(clock=lambda: ctx.loop.now, **breaker_options),
        limiter=limiter if limiter is not None else AimdLimiter(),
    )
    return stub, wrapped, guard


def test_guard_sheds_expired_deadline_before_inner():
    ctx = SimContext.fresh(21)
    stub, _, guard = _guarded(ctx)
    replies = []
    guard.handle(stamp_deadline(make_get("u"), 0.0), replies.append)
    ctx.loop.run()
    assert guard.expired_rejections == 1
    assert stub.requests_served == 0
    assert is_uniform_reject(replies[0])


def test_guard_limiter_bounds_inflight_work():
    ctx = SimContext.fresh(22)
    stub, _, guard = _guarded(ctx, limiter=AimdLimiter(initial=1.0))
    replies = []
    guard.handle(make_get("u1"), replies.append)
    guard.handle(make_get("u2"), replies.append)  # over the window
    ctx.loop.run()
    assert guard.limiter_rejections == 1
    assert stub.requests_served == 1
    rejected = [r for r in replies if not r.ok]
    assert len(rejected) == 1 and is_uniform_reject(rejected[0])


def test_guard_composes_with_brownout_trips_then_recovers():
    """Retryable brownout 503s trip the breaker; a half-open probe
    after the reset timeout re-closes it once the brownout ends."""
    ctx = SimContext.fresh(23)
    stub, brown, guard = _guarded(
        ctx,
        inner=lambda stub: BrownoutLrs(
            inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout")
        ),
        failure_threshold=3, reset_timeout=0.5,
    )
    brown.begin(error_rate=1.0)
    for index in range(3):
        guard.handle(make_get(f"u{index}"), lambda r: None)
        ctx.loop.run()
    assert guard.breaker.state == BREAKER_OPEN
    assert guard.failures_observed == 3

    # While open: local reject, no wire trip, no brownout load.
    rejected_before = brown.rejected
    replies = []
    guard.handle(make_get("blocked"), replies.append)
    ctx.loop.run()
    assert guard.breaker_rejections == 1
    assert brown.rejected == rejected_before
    assert is_uniform_reject(replies[0])

    # Heal the LRS, let the reset window pass, probe, recover.
    brown.end()
    ctx.loop.schedule(0.6, lambda: None)
    ctx.loop.run()
    done = []
    guard.handle(make_get("probe"), done.append)
    ctx.loop.run()
    assert done[0].ok
    assert guard.breaker.state == BREAKER_CLOSED
    assert stub.requests_served == 1


def test_guard_delegates_unknown_attributes():
    ctx = SimContext.fresh(24)
    stub, _, guard = _guarded(ctx)
    assert guard.address == stub.address  # lrs_picker-compatible


# -- layer integration: NoUpstream + uniform shed replies ---------------


def _overload_deployment(seed=31, policy=None, client_options=None, lrs=None):
    ctx = SimContext.fresh(seed)
    stub = lrs if lrs is not None else StubLrs(
        loop=ctx.loop, rng=ctx.rng.stream("stub")
    )
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(
            encryption=False, sgx=False, shuffle_size=0,
            ua_instances=1, ia_instances=1, balancing="round-robin",
        ),
        lrs_picker=lambda: stub,
        overload=policy if policy is not None else OverloadPolicy(),
    )
    client = deployment.client(**(client_options or {}))
    return ctx, stub, deployment, client


def test_ua_rejects_uniformly_when_all_ia_ejected():
    """Health ejection emptying the IA pool must not crash the UA: the
    request is counted as an upstream shed and the client receives the
    canonical retryable reject."""
    ctx, _, deployment, client = _overload_deployment(
        client_options={"max_retries": 0}
    )
    service = deployment.service
    for instance in list(service.ia_instances):
        service.ia_balancer.eject(instance)

    rejects = []

    def tap(record, payload):
        if hop_of(record) == ("ua", "client") and getattr(payload, "ok", True) is False:
            rejects.append(payload)

    ctx.network.add_wiretap(tap)
    calls = []
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()

    ua = service.ua_instances[0]
    assert ua.no_upstream == 1
    assert ua.shed_totals.get(("upstream", "no_upstream")) == 1
    assert not calls[0].ok
    assert rejects and all(is_uniform_reject(reject) for reject in rejects)


def test_deadline_expired_request_shed_at_front_door():
    ctx, stub, deployment, client = _overload_deployment(seed=32)
    ua = deployment.service.ua_instances[0]
    replies = []
    expired = stamp_deadline(make_get("alice", client_address="client-0"), 0.0)
    ua.receive_request(expired, replies.append)
    ctx.loop.run()
    assert ua.shed_totals.get(("deadline", "expired")) == 1
    assert stub.requests_served == 0  # shed before any enclave work
    assert is_uniform_reject(replies[0])


def test_shed_events_pass_role_aware_redaction_audit():
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    ctx = SimContext.fresh(33, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label="overload-audit-test")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(
            encryption=False, sgx=False, shuffle_size=0,
            ua_instances=1, ia_instances=1, balancing="round-robin",
        ),
        lrs_picker=lambda: stub,
        overload=OverloadPolicy(),
    )
    client = deployment.client(max_retries=0)
    for instance in list(deployment.service.ia_instances):
        deployment.service.ia_balancer.eject(instance)
    client.get("alice", on_complete=lambda call: None)
    ctx.loop.run()
    shed_events = [e for e in telemetry.event_log.events if e.kind == "shed"]
    assert shed_events, "shedding emitted no structured event"
    assert telemetry.audit() == []


# -- client deadline budget vs retries and hedging (satellite) ----------


def test_deadline_budget_stamps_every_attempt_fixed_width():
    ctx, _, _, client = _overload_deployment(
        seed=34, client_options={"deadline_budget": 0.9}
    )
    stamped = []

    def tap(record, payload):
        if hop_of(record) == ("client", "ua"):
            stamped.append(payload.fields.get(DEADLINE_FIELD))

    ctx.network.add_wiretap(tap)
    calls = []
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()
    assert calls[0].ok
    assert stamped and all(len(value) == DEADLINE_WIDTH for value in stamped)
    assert float(stamped[0]) == pytest.approx(0.9, abs=1e-6)


def test_no_retry_scheduled_past_expiry():
    """The budget is one per *call*: once now + backoff would cross the
    expiry, the client settles instead of burning another attempt."""
    ctx, _, deployment, client = _overload_deployment(
        seed=35,
        client_options={
            "deadline_budget": 0.3, "max_retries": 10, "request_timeout": 5.0,
        },
    )
    for instance in list(deployment.service.ia_instances):
        deployment.service.ia_balancer.eject(instance)
    calls = []
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()
    call = calls[0]
    assert not call.ok
    assert client.retries_performed < 10
    assert call.completed_at <= call.started_at + 0.3 + 1e-9


def test_hedge_does_not_double_spend_the_budget():
    """A hedge launched hedge_delay later carries only the *remaining*
    budget — the two attempts share one expiry."""

    class SlowLrs:
        def __init__(self, inner, loop, delay):
            self.inner, self.loop, self.delay = inner, loop, delay

        def handle(self, request, reply):
            self.loop.schedule(
                self.delay, lambda: self.inner.handle(request, reply)
            )

        def __getattr__(self, name):
            return getattr(self.inner, name)

    ctx = SimContext.fresh(36)
    slow = SlowLrs(
        StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub")), ctx.loop, 0.6
    )
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(
            encryption=False, sgx=False, shuffle_size=0,
            ua_instances=1, ia_instances=1, balancing="round-robin",
        ),
        lrs_picker=lambda: slow,
        overload=OverloadPolicy(),
    )
    client = deployment.client(
        deadline_budget=1.5, hedge_delay=0.2, request_timeout=5.0, max_retries=0
    )
    budgets = []

    def tap(record, payload):
        if hop_of(record) == ("client", "ua"):
            budgets.append(decode_deadline(payload))

    ctx.network.add_wiretap(tap)
    calls = []
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()
    assert calls[0].ok
    assert client.hedges_launched == 1
    assert len(budgets) == 2
    first, hedge = budgets
    assert first == pytest.approx(1.5, abs=1e-6)
    assert hedge < first  # no fresh budget for the hedge
    assert hedge == pytest.approx(1.5 - 0.2, abs=0.05)


# -- OverloadSignal consumers: autoscaler and health monitor ------------


def _plant_stale_ingress(ctx, ua):
    """Park an entry in the ingress queue; its sojourn grows as the
    virtual clock advances, making the instance read as overloaded."""
    ua.ingress.push((make_get("ghost", client_address="client-0"),
                     lambda response: None, ctx.loop.now, None))


def test_autoscaler_scales_up_on_overload_signal():
    from repro.cluster.autoscaler import ElasticScaler

    ctx, _, deployment, _ = _overload_deployment(seed=37)
    service = deployment.service
    scaler = ElasticScaler(
        loop=ctx.loop, service=service, interval=1.0,
        overload_sojourn_threshold=0.1,
    )
    scaler.start()
    ua = service.ua_instances[0]
    _plant_stale_ingress(ctx, ua)
    # Advance past the first tick: sojourn ~1.0s > threshold there.
    ctx.loop.run_until(1.05)
    scaler.stop()
    ctx.loop.run()  # drain the final (no-op) tick
    assert scaler.overload_scale_ups >= 1
    actions = [decision.action for decision in scaler.decisions]
    assert "scale-up-overload" in actions
    assert len(service.ua_instances) == 2


def test_health_monitor_emits_edge_triggered_overload_events():
    from repro.cluster.health import HealthMonitor
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    ctx = SimContext.fresh(38, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label="overload-health-test")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(
            encryption=False, sgx=False, shuffle_size=0,
            ua_instances=1, ia_instances=1, balancing="round-robin",
        ),
        lrs_picker=lambda: stub,
        overload=OverloadPolicy(),
    )
    service = deployment.service
    monitor = HealthMonitor(
        loop=ctx.loop, service=service, interval=0.5,
        telemetry=telemetry, overload_sojourn_threshold=0.1,
    )
    monitor.start()
    ua = service.ua_instances[0]
    _plant_stale_ingress(ctx, ua)
    ctx.loop.run_until(1.2)  # two probes fire while overloaded
    assert ua.ingress.pop() is not None  # drain: sojourn back to zero
    ctx.loop.run_until(1.8)  # next probe sees recovery
    monitor.stop()
    ctx.loop.run()  # drain the final (no-op) probe
    events = [
        event.payload["event"]
        for event in telemetry.event_log.events
        if event.kind == "fault"
        and event.payload.get("event", "").startswith("instance_overload")
    ]
    # Edge-triggered: one onset despite multiple overloaded probes,
    # then exactly one clear.
    assert events == ["instance_overloaded", "instance_overload_cleared"]
    assert telemetry.audit() == []
