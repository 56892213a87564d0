"""The client's call: how every failure ends, and its epoch view.

The user-side library decides, per failed attempt, whether the call
retries, drops a hedge or settles as failed.  These tests drive one
``get`` through an entry point that follows a script — one step per
attempt, in launch order — and pin what the application and the event
log see: ``on_complete`` exactly once, the outcome class, the client's
counters and how every attempt's trace ends.  A second group pins the
stale-client epoch view (``epoch_ttl``).
"""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.lrs.stub import StubLrs
from repro.overload import uniform_reject
from repro.proxy import PProxConfig, build_pprox, protocol
from repro.proxy.epochs import decode_epoch
from repro.rest.messages import Response
from repro.simnet.loadbalancer import NoUpstream
from repro.telemetry import Telemetry

#: Seconds a ``slow`` step holds its answer: past the hedge delay,
#: well inside the request timeout.
SLOW_SECONDS = 0.3
HEDGE_DELAY = 0.1
REQUEST_TIMEOUT = 1.0


class _ScriptedEntry:
    """A UA-shaped entry point playing one step of the script."""

    def __init__(self, service: "_ScriptedService", step: str) -> None:
        self.service = service
        self.step = step
        self.address = service.ua_address

    def receive_request(self, request, reply) -> None:
        self.service.epochs_seen.append(decode_epoch(request))
        if self.step == "drop":
            return
        if self.step == "reject":
            reply(uniform_reject(request.request_id))
            return
        fields = {"garbled": True} if self.step == "garble" else {"items": ["i1"]}
        response = Response(status=200, fields=fields, request_id=request.request_id)
        if self.step == "slow":
            self.service.loop.schedule(SLOW_SECONDS, lambda: reply(response))
        else:
            reply(response)


class _ScriptedService:
    """The client's view of a deployment whose entry follows *steps*.

    ``no_upstream`` raises where a balancer with no routable UA would;
    ``reject`` answers with the uniform reject; ``garble`` answers ok
    with a body the client cannot decode; ``drop`` never answers;
    ``slow`` answers ok after :data:`SLOW_SECONDS`; ``ok`` answers ok.
    Past the script every attempt is ``ok``.
    """

    def __init__(self, inner, loop, steps) -> None:
        self.inner = inner
        self.loop = loop
        self.steps = list(steps)
        self.config = inner.config
        self.client_material = inner.client_material
        self.runtime = inner.runtime
        self.ua_address = inner.ua_instances[0].address
        #: The epoch view the client reads; tests move it by hand.
        self.wire_epochs = None
        #: ``kepoch`` of every attempt that reached the entry point.
        self.epochs_seen = []

    def entry_for(self, request):
        step = self.steps.pop(0) if self.steps else "ok"
        if step == "no_upstream":
            raise NoUpstream("load balancer 'client->ua' has no backends")
        return _ScriptedEntry(self, step)


def _scripted_client(monkeypatch, steps, seed=61, **client_options):
    telemetry = Telemetry()
    ctx = SimContext.fresh(seed, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label="client-call-test")
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    inner = build_pprox(
        ctx,
        PProxConfig(encryption=False, sgx=False, shuffle_size=0,
                    ua_instances=1, ia_instances=1),
        lrs_picker=lambda: stub,
    )
    service = _ScriptedService(inner, ctx.loop, steps)
    decode = protocol.client_decode_response

    def garbling_decode(provider, config, response, keys, **kwargs):
        if response.fields.get("garbled"):
            raise ValueError("undecodable blob")
        return decode(provider, config, response, keys, **kwargs)

    monkeypatch.setattr(protocol, "client_decode_response", garbling_decode)
    client = PProxClient(ctx, service, **client_options)
    return ctx, telemetry, service, client


def _trace_ends(telemetry):
    """Root-span status of every finished trace, in trace order."""
    roots = [
        event.payload
        for event in telemetry.event_log.of_kind("span")
        if event.payload["name"] == "request"
    ]
    return [root["status"] for root in sorted(roots, key=lambda r: r["trace_id"])]


_COUNTERS = ("timeouts", "retryable_errors", "retries_performed", "hedges_launched")

#: (failure, attempt, budget) -> (outcome, counter deltas, trace ends).
#: The primary cells script the failing attempt and then ``ok``; the
#: hedge cells script a ``slow`` primary and then the failing hedge.
#: A hedge schedules no timeout of its own, so that cell cannot occur.
GIVE_UP_TABLE = {
    ("no_upstream", "primary", "left"): ("retried", (0, 1, 1, 0), ["ok"]),
    ("no_upstream", "primary", "exhausted"): ("failed", (0, 0, 0, 0), []),
    ("no_upstream", "hedge", "left"): ("ok", (0, 0, 0, 1), ["ok"]),
    ("no_upstream", "hedge", "exhausted"): ("ok", (0, 0, 0, 1), ["ok"]),
    ("reject", "primary", "left"): ("retried", (0, 1, 1, 0), ["abandoned", "ok"]),
    ("reject", "primary", "exhausted"): ("failed", (0, 1, 0, 0), ["error"]),
    ("reject", "hedge", "left"): ("ok", (0, 1, 0, 1), ["ok", "abandoned"]),
    ("reject", "hedge", "exhausted"): ("ok", (0, 1, 0, 1), ["ok", "abandoned"]),
    ("garble", "primary", "left"): ("retried", (0, 1, 1, 0), ["abandoned", "ok"]),
    ("garble", "primary", "exhausted"): ("failed", (0, 1, 0, 0), ["error"]),
    ("garble", "hedge", "left"): ("ok", (0, 1, 0, 1), ["ok", "abandoned"]),
    ("garble", "hedge", "exhausted"): ("ok", (0, 1, 0, 1), ["ok", "abandoned"]),
    ("drop", "primary", "left"): ("retried", (1, 0, 1, 0), ["abandoned", "ok"]),
    ("drop", "primary", "exhausted"): ("failed", (1, 0, 0, 0), ["error"]),
}


@pytest.mark.parametrize(
    "failure,attempt,budget", sorted(GIVE_UP_TABLE), ids="-".join
)
def test_give_up_decision(monkeypatch, failure, attempt, budget):
    outcome, deltas, trace_ends = GIVE_UP_TABLE[(failure, attempt, budget)]
    hedged = attempt == "hedge"
    steps = ["slow", failure] if hedged else [failure]
    ctx, telemetry, _, client = _scripted_client(
        monkeypatch, steps,
        request_timeout=REQUEST_TIMEOUT,
        max_retries=1 if budget == "left" else 0,
        hedge_delay=HEDGE_DELAY if hedged else None,
    )
    calls = []
    client.get("alice", on_complete=calls.append)
    ctx.loop.run()

    assert len(calls) == 1
    assert calls[0].ok == (outcome != "failed")
    assert {name: n for name, n in client.outcomes.items() if n} == {outcome: 1}
    assert tuple(getattr(client, name) for name in _COUNTERS) == deltas
    assert _trace_ends(telemetry) == trace_ends


# -- the stale-client epoch view ------------------------------------------


def _epoch_client(monkeypatch, steps=(), epoch_ttl=None):
    ctx, _, service, client = _scripted_client(
        monkeypatch, steps, seed=62,
        request_timeout=REQUEST_TIMEOUT, max_retries=1, epoch_ttl=epoch_ttl,
    )
    service.wire_epochs = {"UA": 0, "IA": 0}
    return ctx, service, client


def _at(ctx, when, action):
    ctx.loop.schedule(when - ctx.loop.now, action)


def _move_epoch(service, epoch):
    def move():
        service.wire_epochs = {"UA": epoch, "IA": 0}

    return move


def test_cached_epoch_view_is_stamped_until_expiry(monkeypatch):
    ctx, service, client = _epoch_client(monkeypatch, epoch_ttl=1.0)
    _at(ctx, 0.0, lambda: client.get("a"))
    _at(ctx, 0.2, _move_epoch(service, 1))
    _at(ctx, 0.5, lambda: client.get("b"))  # inside the TTL: stale view
    _at(ctx, 1.2, lambda: client.get("c"))  # expired: refresh, one bump
    _at(ctx, 1.5, lambda: client.get("d"))
    _at(ctx, 2.6, lambda: client.get("e"))  # refresh, epoch unchanged
    ctx.loop.run()
    assert service.epochs_seen == [0, 0, 1, 1, 1]
    assert client.epoch_bumps == 1


def test_retry_discovers_the_epoch_once(monkeypatch):
    """A retryable error drops the cached view; the retry carries the
    new epoch and counts the change, and the next refresh does not
    count it again."""
    ctx, service, client = _epoch_client(
        monkeypatch, steps=["ok", "reject"], epoch_ttl=1.0
    )
    calls = []
    _at(ctx, 0.0, lambda: client.get("a", on_complete=calls.append))
    _at(ctx, 0.2, _move_epoch(service, 1))
    _at(ctx, 0.5, lambda: client.get("b", on_complete=calls.append))
    _at(ctx, 3.0, lambda: client.get("c", on_complete=calls.append))
    ctx.loop.run()
    assert [call.ok for call in calls] == [True, True, True]
    assert client.retries_performed == 1
    # a: fresh view; b: stale view, rejected, retried under the new
    # epoch; c: expired view refreshed, same epoch.
    assert service.epochs_seen == [0, 0, 1, 1]
    assert client.epoch_bumps == 1


def test_no_epoch_ttl_reads_the_live_view(monkeypatch):
    ctx, service, client = _epoch_client(monkeypatch, epoch_ttl=None)
    _at(ctx, 0.0, lambda: client.get("a"))
    _at(ctx, 0.2, _move_epoch(service, 1))
    _at(ctx, 0.3, lambda: client.get("b"))
    _at(ctx, 0.4, _move_epoch(service, 2))
    _at(ctx, 0.5, lambda: client.get("c"))
    ctx.loop.run()
    assert service.epochs_seen == [0, 1, 2]
    assert client.epoch_bumps == 0
