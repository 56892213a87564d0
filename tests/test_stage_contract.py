"""The proxy stage contract, run over both roles.

``UserAnonymizer`` and ``ItemAnonymizer`` share one stage core
(``proxy/layers.py``); every lifecycle rule below must hold for a UA
and for an IA alike, so each test is parametrized over the role.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.context import Deployment, SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.overload import OverloadPolicy
from repro.overload.deadline import stamp_deadline
from repro.overload.shedding import is_uniform_reject
from repro.proxy import PProxConfig
from repro.rest.codec import JSON_WIRE_CODEC, BatchEnvelope, WireFrame
from repro.rest.messages import Response
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.simnet.queueing import ConcurrentQueue
from repro.telemetry import Telemetry
from tests.conftest import make_get, streamed, written

ROLES = ("ua", "ia")


def _stack(seed=5, overload=None, telemetry=None, codec="json", loop=None, **config):
    ctx = SimContext.fresh(seed, telemetry=telemetry, codec=codec, loop=loop)
    ctx.provider = RealCryptoProvider(rng_bytes=ctx.rng.bytes_fn("crypto"))
    if telemetry is not None:
        telemetry.bind(ctx.loop, run_label="stage-contract")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    config.setdefault("shuffle_size", 4)
    config.setdefault("shuffle_timeout", 0.2)
    deployment = Deployment.build(
        ctx=ctx, config=PProxConfig(**config), lrs_picker=lambda: stub, overload=overload,
    )
    stub.items = make_pseudonymous_payload(
        ctx.provider, deployment.service.provisioner.layer_keys["IA"].symmetric_key
    )
    return ctx, stub, deployment


def _instance(deployment, role):
    return deployment.service.layer_instances(role.upper())[0]


def _park_one_entry(ctx, deployment, role):
    """Leave exactly one entry in *role*'s shuffle buffer (S=4, so one
    request sits in the UA's buffer, its response in the IA's)."""
    deployment.client().get("alice")
    # Long enough for the lone request to reach the IA response buffer
    # on the UA's flush timer, short of the IA's own flush timer.
    ctx.loop.run_until(0.05 if role == "ua" else 0.3)
    instance = _instance(deployment, role)
    assert instance.shuffle_buffer.pending == 1
    return instance


@pytest.mark.parametrize("role", ROLES)
def test_shuffle_buffer_is_the_role_s_own_field(role):
    _, _, deployment = _stack()
    instance = _instance(deployment, role)
    own = instance.request_buffer if role == "ua" else instance.response_buffer
    assert instance.shuffle_buffer is own is not None
    assert own.name == f"{instance.name}-{'requests' if role == 'ua' else 'responses'}"
    _, _, unshuffled = _stack(shuffle_size=0)
    assert _instance(unshuffled, role).shuffle_buffer is None


@pytest.mark.parametrize("role", ROLES)
def test_fail_returns_drained_count_and_drops_later_traffic(role):
    ctx, stub, deployment = _stack()
    instance = _park_one_entry(ctx, deployment, role)
    assert instance.fail() == 1
    assert not instance.alive
    assert instance.shuffle_buffer.pending == 0
    processed = instance.requests_processed
    replies = []
    instance.receive_request(make_get("bob", client_address="client-bob"), replies.append)
    ctx.loop.run()
    assert replies == []  # dropped silently, not rejected
    assert instance.requests_processed == processed


@pytest.mark.parametrize("role", ROLES)
def test_restart_refuses_alive_instance_and_unattested_enclave(role):
    _, _, deployment = _stack()
    instance = _instance(deployment, role)
    with pytest.raises(RuntimeError):
        instance.restart(instance.enclave)
    instance.fail()
    unattested = Enclave(
        name="fresh", measurement=EnclaveMeasurement.of_code("x"), host_node="n"
    )
    with pytest.raises(ValueError):
        instance.restart(unattested)
    assert not instance.alive and instance.generation == 0


@pytest.mark.parametrize("role", ROLES)
def test_restart_starts_a_fresh_generation(role):
    _, _, deployment = _stack(overload=OverloadPolicy())
    instance = _instance(deployment, role)
    assert instance.routing.name == f"T-{role}"
    old_ingress, old_routing = instance.ingress, instance.routing
    assert isinstance(old_ingress, ConcurrentQueue)
    instance.fail()
    deployment.service.restart_instance(instance)
    assert instance.alive and instance.generation == 1
    assert instance.routing is not old_routing
    assert instance.routing.name == f"T-{role}-g1"
    assert instance.ingress is not old_ingress
    assert instance.ingress.name == f"{instance.name}-ingress-g1"
    assert instance.ingress.on_shed == instance._shed_from_queue
    instance.fail()
    deployment.service.restart_instance(instance)
    assert instance.routing.name == f"T-{role}-g2"


@pytest.mark.parametrize("role", ROLES)
def test_restart_without_overload_policy_keeps_ingress_off(role):
    _, _, deployment = _stack()
    instance = _instance(deployment, role)
    instance.fail()
    deployment.service.restart_instance(instance)
    assert instance.ingress is None


@pytest.mark.parametrize("role", ROLES)
def test_previous_generation_callbacks_go_inert(role):
    """Work the node still owes a dead life must not run in the next."""
    ctx, stub, deployment = _stack(shuffle_size=0)
    instance = _instance(deployment, role)
    replies = []
    instance.receive_request(make_get("alice", client_address="client-a"), replies.append)
    assert instance.node.pending == 1  # transform leg scheduled, not yet run
    instance.fail()
    deployment.service.restart_instance(instance)
    ctx.loop.run()
    assert instance.requests_processed == 0
    assert len(instance.routing) == 0
    assert replies == [] and stub.requests_served == 0


@pytest.mark.parametrize("role", ROLES)
def test_count_shed_totals_observer_and_one_event_per_cause(role):
    telemetry = Telemetry()
    stream = streamed(telemetry)
    _, _, deployment = _stack(overload=OverloadPolicy(), telemetry=telemetry)
    instance = _instance(deployment, role)
    observed = []
    instance.shed_observer = lambda stage, reason: observed.append((stage, reason))
    for _ in range(3):
        instance._count_shed("queue", "tail_drop")
    instance._count_shed("deadline", "expired")
    assert instance.shed_totals == {("queue", "tail_drop"): 3, ("deadline", "expired"): 1}
    assert instance.sheds == 4
    assert observed == [("queue", "tail_drop")] * 3 + [("deadline", "expired")]
    events = written(stream, "shed")
    assert [(e["role"], e["stage"], e["reason"]) for e in events] == [
        (role, "queue", "tail_drop"),
        (role, "deadline", "expired"),
    ]
    assert all(e["instance"] == instance.name for e in events)
    assert telemetry.audit() == []


@pytest.mark.parametrize("role", ROLES)
def test_pending_sums_node_routing_buffer_and_queue(role):
    ctx, _, deployment = _stack(overload=OverloadPolicy())
    instance = _park_one_entry(ctx, deployment, role)
    instance.ingress.push(("request", lambda response: None, ctx.loop.now, None))
    instance.node.submit(1.0, lambda: None)
    parts = (
        instance.node.pending,
        len(instance.routing),
        instance.shuffle_buffer.pending,
        instance.ingress.depth,
    )
    # The IA holds a routing entry for the response it has buffered;
    # the UA registers its route only after the shuffle.
    assert parts == (1, 0 if role == "ua" else 1, 1, 1)
    assert instance.pending == sum(parts)


@pytest.mark.parametrize("role", ROLES)
def test_expired_deadline_is_rejected_uniformly_before_any_work(role):
    ctx, stub, deployment = _stack(overload=OverloadPolicy())
    instance = _instance(deployment, role)
    buffered = instance.shuffle_buffer.entries_buffered
    replies = []
    expired = stamp_deadline(make_get("alice", client_address="client-0"), 0.0)
    instance.receive_request(expired, replies.append)
    ctx.loop.run()
    assert instance.shed_totals == {("deadline", "expired"): 1}
    assert len(replies) == 1 and is_uniform_reject(replies[0])
    assert instance.node.stats.jobs_completed == 0 and stub.requests_served == 0
    # Neither role's batch is touched.  For the IA that pins what the
    # front-door comment says: the reject goes straight back to the UA
    # and never enters response_buffer.
    assert instance.shuffle_buffer.entries_buffered == buffered
    assert instance.shuffle_buffer.pending == 0


def test_transform_error_inside_a_flushed_batch_is_rejected_alone():
    """Batch-path twin of the per-request rule (a stale-key request is
    rejected retryably, never crashes the instance): inside a flushed
    batch the bad request gets the uniform reject and the remaining
    requests are still sealed, in one envelope."""
    from repro.proxy import protocol

    ctx, stub, deployment = _stack(codec="binary", shuffle_size=3, ua_instances=1,
                                   ia_instances=1)
    service = deployment.service
    ua = service.ua_instances[0]
    assert ua.request_buffer.release_batch is not None  # batch-envelope mode
    replies = {}

    def send(user, material):
        request = make_get(user, client_address=f"client-{user}",
                           request_id=ctx.next_request_id())
        encoded, _ = protocol.client_encode_get(
            ctx.provider, material, service.config, request, codec=ctx.codec
        )
        ua.receive_request(encoded, lambda response: replies.setdefault(user, response))

    good = service.client_material
    # Sealed for a UA key this enclave does not hold: the UA's own
    # public half swapped for the IA's.
    stale = protocol.ClientMaterial(ua=good.ia, ia=good.ia)
    send("alice", good)
    send("mallory", stale)
    send("bob", good)
    ctx.loop.run()

    assert ua.transform_errors == 1
    assert is_uniform_reject(replies["mallory"])
    assert ua.batch_envelopes_sealed == 1
    assert service.ia_instances[0].batch_envelopes_opened == 1
    assert ua.requests_processed == 2 and stub.requests_served == 2
    assert replies["alice"].ok and replies["bob"].ok
    assert len(ua.routing) == 0


def test_a_get_whose_tmpkey_is_not_aes256_ends_in_the_uniform_reject():
    """A ``tmpkey`` that opens to 16 bytes would have the IA encrypt the
    recommendation list under AES-128.  The IA's response transform
    refuses it instead: one transform error, one uniform reject."""
    from repro.proxy import protocol

    ctx, stub, deployment = _stack(shuffle_size=0, ua_instances=1, ia_instances=1)
    service = deployment.service
    short_keyed = RealCryptoProvider(rng_bytes=ctx.rng.bytes_fn("short"))
    short_keyed.new_temporary_key = lambda: bytes(16)
    request = make_get("alice", client_address="client-0", request_id=ctx.next_request_id())
    encoded, keys = protocol.client_encode_get(
        short_keyed, service.client_material, service.config, request, codec=ctx.codec
    )
    assert len(keys.temporary_key) == 16
    replies = []
    service.ua_instances[0].receive_request(encoded, replies.append)
    ctx.loop.run()

    assert stub.requests_served == 1
    assert [ia.transform_errors for ia in service.ia_instances] == [1]
    assert service.ua_instances[0].transform_errors == 0
    assert len(replies) == 1 and is_uniform_reject(replies[0])


def test_unknown_response_is_stale_at_either_role():
    _, _, deployment = _stack()
    for role in ROLES:
        instance = _instance(deployment, role)
        instance._receive_response(Response(status=200, request_id=424242))
    deployment.ctx.loop.run()
    assert [_instance(deployment, role).stale_responses for role in ROLES] == [1, 1]


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_every_protected_hop_carries_encoded_frames(codec):
    """There is no object wire: whatever a wiretap sees between client,
    UA, IA and LRS is a ``WireFrame`` or (the sealed flush of the
    binary wire) a ``BatchEnvelope`` — and a context built without
    naming a codec is on the JSON wire."""
    assert SimContext.fresh(5).codec is JSON_WIRE_CODEC
    ctx, _, deployment = _stack(codec=codec, shuffle_size=2)
    seen = {}
    ctx.network.add_wiretap(
        lambda record, payload: seen.setdefault(
            (record.source_role, record.destination_role), set()
        ).add(type(payload))
    )
    client, calls = deployment.client(), []
    client.post("alice", "lamp", on_complete=calls.append)
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()

    assert [call.ok for call in calls] == [True, True]
    assert set(seen) == {
        ("client", "ua"), ("ua", "ia"), ("ia", "lrs"),
        ("lrs", "ia"), ("ia", "ua"), ("ua", "client"),
    }
    sealed = {BatchEnvelope} if ctx.codec.batch_envelopes else {WireFrame}
    for hop, kinds in seen.items():
        assert kinds == (sealed if hop == ("ua", "ia") else {WireFrame}), hop


def test_e2e_harness_contract_on_an_observed_passthrough_deployment():
    """What ``benchmarks/e2e`` relies on, pinned where tier-1 sees it.

    The ledger's traced pass replaces eight telemetry entry points *by
    attribute on the instances* (``harness.py::arm_telemetry``) and
    derives ``telemetry.events_per_req`` / ``telemetry.spans_per_req``
    from two lengths of the hub's log.  So the data plane must look
    those methods up on the instance at every call (no ``__slots__``
    on the tracers, no bound method cached at construction) — or the
    traced pass silently reads ``telemetry.self_us = 0`` — and a
    request emits exactly one ``cspan`` and no ``span``: nothing per
    request is written past the UA front door.
    """
    from repro.obs.causal import CausalTracer, instrument_causal
    from repro.telemetry import instrument_stack
    from repro.workload.injector import Injector

    # build_stack + arm_observability, for ``observed_get``.
    hub = Telemetry(scrape_interval=1.0)
    ctx = SimContext.fresh(7, codec="binary", telemetry=hub)
    hub.bind(ctx.loop, run_label="observed_get")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(encryption=False, sgx=False, shuffle_size=0),
        lrs_picker=lambda: stub,
    )
    causal = CausalTracer(clock=lambda: ctx.loop.now, event_log=hub.event_log)
    causal.attach_metrics(hub.registry)
    deployment.service.runtime.causal = causal

    calls = {}

    def count(owner, method):
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[method] = calls.get(method, 0) + 1
            return inner(*args, **kwargs)

        setattr(owner, method, counted)

    for method in ("record_hop", "annotate", "end_trace", "abandon"):
        count(hub.tracer, method)
    for method in ("start_call", "stamp", "settle_call", "absorb"):
        count(causal, method)

    client = deployment.client(causal=causal)
    injector = Injector(ctx.loop, ctx.rng.stream("arrivals"))
    instrument_stack(
        hub, service=deployment.service, provider=ctx.provider, lrs=stub,
        injector=injector, network=ctx.network, client=client,
    )
    instrument_causal(causal, deployment.service)

    requests = 40
    injector.inject(
        200.0, requests / 200.0,
        lambda report: client.get("user-1", on_complete=report),
    )
    ctx.loop.run()
    assert (injector.report.completed, injector.report.failed) == (requests, 0)

    per_request = {
        "record_hop": 6, "annotate": 0, "end_trace": 1, "abandon": 0,
        "start_call": 1, "stamp": 1, "settle_call": 1, "absorb": 1,
    }
    assert {method: calls.get(method, 0) for method in per_request} == {
        method: n * requests for method, n in per_request.items()
    }
    # 1 cspan per request, + the run-start marker: counted, none built
    # (the hub has no stream, as the harness's has none).
    assert len(hub.event_log) == requests + 1
    assert len(hub.event_log.of_kind("span")) == 0
    assert len(hub.event_log.of_kind("cspan")) == requests
    assert hub.event_log.counts == {"run": 1, "cspan": requests}
    assert hub.event_log.violations == [] and hub.audit() == []


# What ``benchmarks/e2e/tracing.py`` walks to name the owner of a
# scheduled callback (a copy: tier-1 does not import from benchmarks/).
_CARRIERS = ("repro.simnet.network", "repro.simnet.node", "repro.rest.codec")
_CONTINUATIONS = ("on_deliver", "on_complete")


def _continuation_owner(callback):
    """Follow carrier closures to the callback they deliver to; a
    carrier that hides its continuation fails the assertion."""
    fn = callback
    for _ in range(4):
        fn = getattr(fn, "__func__", fn)
        if getattr(fn, "__module__", "") not in _CARRIERS:
            return fn
        held = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
        names = [name for name in _CONTINUATIONS if name in held]
        assert names, f"{fn.__module__}:{fn.__qualname__} holds no on_deliver/on_complete"
        fn = held[names[0]].cell_contents
    raise AssertionError(f"{callback!r}: more than four carriers deep")


class _SpyLoop:
    """Delegating loop recording every callback handed to the four
    scheduling entry points (``EventLoop`` is slotted)."""

    def __init__(self, inner):
        self._inner, self.scheduled = inner, []

    def _spied(method):
        def schedule(self, when, callback):
            self.scheduled.append(callback)
            return getattr(self._inner, method)(when, callback)

        return schedule

    schedule, schedule_at = _spied("schedule"), _spied("schedule_at")
    post, post_at = _spied("post"), _spied("post_at")

    def __getattr__(self, name):
        return getattr(self._inner, name)


M1 = dict(encryption=False, sgx=False, shuffle_size=0)
M6 = dict(shuffle_size=10)


def _gets(requests=20, codec="json", loop=None, wiretap=None, **config):
    """Open-loop gets through a stub deployment, as the ledger drives them."""
    from repro.workload.injector import Injector

    ctx, _, deployment = _stack(seed=7, codec=codec, loop=loop, **config)
    if wiretap is not None:
        ctx.network.add_wiretap(wiretap)
    client = deployment.client()
    injector = Injector(ctx.loop, ctx.rng.stream("arrivals"))
    injector.inject(
        200.0, requests / 200.0, lambda report: client.get("user-1", on_complete=report)
    )
    ctx.loop.run()
    assert (injector.report.completed, injector.report.failed) == (requests, 0)
    return ctx


def test_carrier_closures_hold_their_continuation_by_name():
    """The frozen ledger attributes a scheduled callback to the layer
    that owns it by walking closures of ``simnet.network``,
    ``simnet.node`` and ``rest.codec`` through a free variable called
    ``on_deliver`` / ``on_complete``.  A ``functools.partial``, a
    callable object or a renamed variable there would not fail any
    behavioural test — it would silently book the data plane's time as
    ``cb.simnet`` and drop ``trace.attributed_share``."""
    from repro.simnet.clock import EventLoop

    loop = _SpyLoop(EventLoop())
    _gets(loop=loop, codec="binary", **M1)
    owners = {}
    for callback in loop.scheduled:
        fn = getattr(callback, "__func__", callback)
        if fn.__module__ in _CARRIERS:
            owner = _continuation_owner(callback)
            owners.setdefault(owner.__module__.rsplit(".", 1)[0], set()).add(fn.__qualname__)
    # Six deliveries and five completions per get, every one owned by
    # the layer whose code it runs — none by simnet or the codec.
    delivery, completion = "Network.send.<locals>.<lambda>", "SimNode._completer.<locals>.finish"
    assert owners == {
        "repro.client": {delivery},
        "repro.proxy": {delivery, completion},
        "repro.lrs": {completion},
    }
    assert sum(fn.__module__ in _CARRIERS for fn in loop.scheduled) == 11 * 20


@pytest.mark.parametrize("codec", ("json", "binary"))
@pytest.mark.parametrize("name, config, events", [("m1", M1, 13), ("m6", M6, 14)])
def test_a_get_is_a_fixed_number_of_events_sends_and_bytes(monkeypatch, name, config, events,
                                                           codec):
    """One arrival, six wire latencies, five service times and (with
    encryption) the client's crypto delay: each an RNG draw or a
    queueing decision at its own virtual instant, so the count is a
    floor.  Forwarding a frame changes none of them, nor a byte, on
    either wire (the e2e ledger's ``passthrough_get`` runs binary).
    With encryption on, the binary wire's UA seals each shuffle flush
    into one envelope: one UA->IA send and delivery per batch."""
    from dataclasses import replace

    requests = 20
    batched = codec == "binary" and config.get("encryption", True)
    folded = requests - requests // config["shuffle_size"] if batched else 0
    forwarding = _gets(requests, codec=codec, **config)
    assert forwarding.loop.events_processed == events * requests - folded
    assert forwarding.network.messages_sent == 6 * requests - folded

    framed = WireFrame.for_message.__func__
    monkeypatch.setattr(
        WireFrame, "for_message",
        classmethod(lambda cls, codec, message: framed(cls, codec, replace(message))),
    )
    encoding = _gets(requests, codec=codec, **config)
    assert encoding.network.bytes_sent == forwarding.network.bytes_sent
    assert (encoding.loop.events_processed, encoding.loop.now) == (
        forwarding.loop.events_processed, forwarding.loop.now)


#: sha256 over the bytes of every frame a 20-get run puts on the wire,
#: in send order.  A change to the codec, the message model or the ship
#: path that moves one byte, or one frame's order, moves the digest.
#: Recorded from the tree before the decode path was reworked; a change
#: that means to move the wire updates it and says so.
WIRE_DIGESTS = {
    "m1-binary": "cab9200e9af74b2d41d17de0c8b4582202c98af4c1d65c73879e0eb4276af05b",
    "m6-json": "22a2adb022098b02881a9eec642b023f1c0e51386faab077c57c4d7a73c59662",
}


def _wire_digest(codec, config):
    digest, frames = hashlib.sha256(), []

    def tap(record, payload):
        assert isinstance(payload, WireFrame), type(payload)
        frames.append(payload)
        digest.update(bytes(payload.data))

    _gets(20, codec=codec, wiretap=tap, **config)
    assert len(frames) == 6 * 20
    return digest.hexdigest()


@pytest.mark.parametrize("name, codec, config",
                         [("m1-binary", "binary", M1), ("m6-json", "json", M6)])
def test_the_wire_of_a_get_run_is_pinned_byte_for_byte(name, codec, config):
    assert _wire_digest(codec, config) == WIRE_DIGESTS[name]
