"""The thin user-side library (paper §2.1 item ➄, §4.2).

"A thin user-side library is easily embeddable in the application or
web front-end ... and offers the exact same REST API as the LRS.
This library intercepts, encrypts and forwards clients' API calls to
the proxy service."  The paper implements it in JavaScript; this is
the behavioural equivalent driving the simulation: it encrypts
arguments, keeps the per-request temporary key ``k_u``, decrypts
responses and strips padding pseudo-items — all transparently for the
calling application.

:class:`DirectClient` bypasses the proxy and talks straight to the
LRS; it drives the unprotected baseline configurations (b1-b4).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.overload.deadline import stamp_deadline
from repro.overload.shedding import is_retryable
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.proxy.epochs import stamp_epoch
from repro.proxy.service import PProxService
from repro.rest.codec import ship
from repro.rest.messages import Request, Response, Verb, make_get, make_post
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import BalancerError
from repro.simnet.network import Network

if TYPE_CHECKING:  # import cycle: repro.context hands out clients
    from repro.context import SimContext

__all__ = ["PProxClient", "DirectClient", "CompletedCall", "OUTCOME_CLASSES",
           "BACKOFF_BASE", "BACKOFF_JITTER"]

#: Request-outcome classes counted by ``PProxClient.outcomes`` (and the
#: ``pprox_request_outcome_total`` counter family built over them).
OUTCOME_CLASSES = ("ok", "retried", "hedged", "failed")

#: Exponential backoff: the n-th retry of a call waits
#: ``BACKOFF_BASE * 2**(n-1) + U(0, BACKOFF_JITTER)`` seconds, the
#: jitter drawn from the client's own seeded RNG.
BACKOFF_BASE = 0.05
BACKOFF_JITTER = 0.02


@dataclass(frozen=True, slots=True, init=False)
class CompletedCall:
    """Result handed to the application when a call completes.

    One per call, so it fills its slots as :class:`repro.rest.messages.
    Request` does (see that module's docstring); assigning to a field
    raises as on any frozen dataclass.
    """

    verb: str
    user: str
    ok: bool
    items: List[str]
    started_at: float
    completed_at: float
    request_id: int

    def __init__(self, verb: str, user: str, ok: bool, items: List[str],
                 started_at: float, completed_at: float, request_id: int) -> None:
        _set_verb(self, verb)
        _set_user(self, user)
        _set_ok(self, ok)
        _set_items(self, items)
        _set_started_at(self, started_at)
        _set_completed_at(self, completed_at)
        _set_request_id(self, request_id)

    @property
    def latency(self) -> float:
        """Round-trip service latency as the injector measures it."""
        return self.completed_at - self.started_at


_set_verb = CompletedCall.verb.__set__  # type: ignore[attr-defined]
_set_user = CompletedCall.user.__set__  # type: ignore[attr-defined]
_set_ok = CompletedCall.ok.__set__  # type: ignore[attr-defined]
_set_items = CompletedCall.items.__set__  # type: ignore[attr-defined]
_set_started_at = CompletedCall.started_at.__set__  # type: ignore[attr-defined]
_set_completed_at = CompletedCall.completed_at.__set__  # type: ignore[attr-defined]
_set_request_id = CompletedCall.request_id.__set__  # type: ignore[attr-defined]


class PProxClient:
    """User-side library instance bound to a PProx deployment.

    ``PProxClient(ctx, service, request_timeout=0.5, ...)``: the client
    draws its loop, network, provider, cost model, telemetry hub, wire
    codec and request-id counter from *ctx*, a
    :class:`repro.context.SimContext`, and (unless *rng* is given) its
    backoff jitter from the context's ``client`` RNG stream.  Each
    ``get`` / ``post`` is one :class:`_Call`.
    """

    def __init__(
        self,
        ctx: "SimContext",
        service: PProxService,
        *,
        rng: Optional[random.Random] = None,
        material: Optional[protocol.ClientMaterial] = None,
        tenant: Optional[str] = None,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
        hedge_delay: Optional[float] = None,
        deadline_budget: Optional[float] = None,
        epoch_ttl: Optional[float] = None,
        causal: Optional[Any] = None,
    ) -> None:
        self.loop: EventLoop = ctx.loop
        self.network: Network = ctx.network
        #: The provider the service builders memoized onto the context.
        self.provider = ctx.resolved_provider()
        self.service = service
        self.costs = ctx.costs
        self.rng = rng if rng is not None else ctx.rng.stream("client")
        #: Multi-tenant deployments: this application's public keys (the
        #: shared service has no single client material) and its public
        #: tenant label, stamped on every request.
        self.material = material
        self.tenant = tenant
        #: Abandon an attempt after this many seconds (None: wait forever).
        self.request_timeout = request_timeout
        #: Re-issue a failed call this many times before reporting
        #: failure.  Retried posts are at-least-once: a retry racing a slow
        #: original can insert duplicate feedback, which CCO deduplicates.
        self.max_retries = max_retries
        #: Optional :class:`repro.telemetry.Telemetry` hub.  The client is
        #: where traces begin (t0 hop) and end (settle).
        self.telemetry = ctx.telemetry
        #: Launch one hedged duplicate of a call (fresh request id, same
        #: payload) if no response arrived within this many seconds; first
        #: answer wins, the loser's trace is abandoned.  ``None`` disables
        #: hedging.  Hedges do not consume the retry budget.
        self.hedge_delay = hedge_delay
        #: End-to-end time budget per call (seconds).  Each attempt —
        #: original, retry or hedge — is stamped with the budget *remaining
        #: at launch* (one shared expiry per call, so a hedge can never
        #: double-spend), letting every hop shed the request once the
        #: client has given up.  No retry is scheduled to land past the
        #: expiry.  ``None`` disables deadline propagation.
        self.deadline_budget = deadline_budget
        #: Cache the service's key material/epoch view for this many
        #: seconds, modelling a client that does not observe a rotation
        #: immediately (see :meth:`_key_view`).  ``None`` reads live on
        #: every encode.
        self.epoch_ttl = epoch_ttl
        #: Opt-in :class:`repro.obs.causal.CausalTracer`: stamps each
        #: attempt with a fixed-width trace id on the client->ua hop
        #: only (the UA severs it at the shuffle boundary).
        self.causal = causal
        #: Wire codec shared with the service.
        self.codec = ctx.codec
        #: Request-id allocator: the per-context counter, so same-seed
        #: runs issue identical ids whatever else ran in the process.
        self._next_id = ctx.next_request_id
        self.calls_started = 0
        self.calls_completed = 0
        self.retries_performed = 0
        self.timeouts = 0
        #: Retryable error responses observed (the uniform reject, an
        #: undecodable answer) and retried no-upstream attempts.
        self.retryable_errors = 0
        self.hedges_launched = 0
        #: Epoch changes this client discovered (cache expiry or retry).
        self.epoch_bumps = 0
        #: Settled-call classification: ok / retried / hedged / failed.
        self.outcomes: Dict[str, int] = {outcome: 0 for outcome in OUTCOME_CLASSES}
        #: (expires_at, material, epoch view) — set only with epoch_ttl.
        self._epoch_view: Optional[tuple] = None

    @property
    def config(self) -> PProxConfig:
        """The deployment's configuration."""
        return self.service.config

    def post(
        self,
        user: str,
        item: str,
        payload: Optional[str] = None,
        client_address: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedCall], None]] = None,
    ) -> None:
        """Issue ``post(u, i[, p])`` through the proxy service."""
        address = client_address or f"client-{user}"
        _Call(self, Verb.POST, user, item, payload, address, on_complete).start()

    def get(
        self,
        user: str,
        client_address: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedCall], None]] = None,
    ) -> None:
        """Issue ``get(u)`` through the proxy service."""
        address = client_address or f"client-{user}"
        _Call(self, Verb.GET, user, None, None, address, on_complete).start()

    def _key_view(self, discover: bool = False) -> tuple:
        """``(material, epoch view)`` the next encode targets.

        Tenant material, or no :attr:`epoch_ttl`, reads the service
        live.  With a TTL the view is cached — a deliberately stale
        client that exercises the dual-epoch acceptance window
        mid-rotation — and refreshed once it expires or, with
        *discover*, on a retry.  A refresh that finds the epochs moved
        counts one ``epoch_bumps``.
        """
        service = self.service
        if self.material is not None:
            return self.material, service.wire_epochs
        if self.epoch_ttl is None:
            return service.client_material, service.wire_epochs
        view = self._epoch_view
        now = self.loop.now
        if view is None or discover or now >= view[0]:
            epochs = service.wire_epochs
            if view is not None and view[2] != epochs:
                self.epoch_bumps += 1
            view = self._epoch_view = (now + self.epoch_ttl, service.client_material, epochs)
        return view[1], view[2]

    def _encode(self, call: "_Call", discover: bool = False) -> Tuple[Request, protocol.CallKeys]:
        """Encrypt *call* under a fresh request id and the current key
        view, stamped with the tenant label and the view's UA epoch (a
        fixed-width tag the UA strips before the shuffle buffer;
        pre-epoch services stamp nothing)."""
        material, epochs = self._key_view(discover)
        if call.verb == Verb.GET:
            fresh = make_get(call.user, client_address=call.address,
                             request_id=self._next_id())
            encode = protocol.client_encode_get
        else:
            fresh = make_post(call.user, call.item, call.payload,
                              client_address=call.address, request_id=self._next_id())
            encode = protocol.client_encode_post
        encoded, keys = encode(self.provider, material, self.config, fresh, codec=self.codec)
        if self.tenant is not None:
            encoded = encoded.with_fields(tenant=self.tenant)
        if epochs:
            encoded = stamp_epoch(encoded, epochs.get("UA"))
        return encoded, keys


class _Call:
    """One ``get`` or ``post``: its attempts, their shared deadline
    budget, and the one rule (:meth:`give_up`) every failure ends in."""

    __slots__ = ("client", "verb", "user", "item", "payload", "address",
                 "on_complete", "started_at", "expiry", "trace_id",
                 "attempt_index", "retries", "hedged", "live_ids", "settled")

    def __init__(self, client: PProxClient, verb: str, user: str, item: Optional[str],
                 payload: Optional[str], address: str,
                 on_complete: Optional[Callable[[CompletedCall], None]]) -> None:
        self.client = client
        self.verb = verb
        self.user = user
        self.item = item
        self.payload = payload
        self.address = address
        self.on_complete = on_complete
        self.started_at = client.loop.now
        # One expiry for the whole call: retries and hedges all draw
        # down one budget, so concurrent attempts cannot spend it twice.
        budget = client.deadline_budget
        self.expiry = self.started_at + budget if budget is not None else None
        self.trace_id: Any = None
        #: Bumped by every retry: timers armed by an older attempt lapse.
        self.attempt_index = 0
        self.retries = 0
        #: Whether the call's one hedge was launched.
        self.hedged = False
        #: Request ids of the attempts still in flight.
        self.live_ids: Set[int] = set()
        self.settled = False

    def start(self) -> None:
        """Encrypt the call and launch its first attempt."""
        client = self.client
        request, keys = client._encode(self)
        client.calls_started += 1
        if client.causal is not None:
            self.trace_id = client.causal.start_call(self.verb)
        if self.address not in client.network.roles:
            client.network.register_role(self.address, "client")
        first = _Attempt(self, request, keys, hedged=False)
        encrypt_delay = client.costs.client_encrypt_seconds(client.config)
        if encrypt_delay > 0:
            client.loop.post(encrypt_delay, first.launch)
        else:
            first.launch()

    def give_up(self, attempt: "_Attempt") -> None:
        """The one failure rule, however *attempt* failed (no routable UA,
        a retryable reject, an undecodable answer, a timeout): a hedge
        drops out and leaves the call to the primary; a primary with
        retries left retries after backoff; otherwise the call fails."""
        request_id = attempt.request.request_id
        client = self.client
        if attempt.hedged:
            self.live_ids.discard(request_id)
            if client.telemetry is not None:
                client.telemetry.tracer.abandon(request_id)
        elif self.retries < client.max_retries:
            self.retry(request_id)
        else:
            self.settle(False, [], request_id)

    def retry(self, request_id: int) -> None:
        """Re-issue the call under a fresh id after backoff."""
        client = self.client
        delay = BACKOFF_BASE * 2.0 ** self.retries + BACKOFF_JITTER * client.rng.random()
        self.live_ids.discard(request_id)
        if self.expiry is not None and client.loop.now + delay >= self.expiry:
            # The retry would launch with a spent budget that every hop
            # sheds on sight: settle instead of scheduling doomed work.
            self.settle(False, [], request_id)
            return
        self.attempt_index += 1
        self.retries += 1
        client.retries_performed += 1
        if client.telemetry is not None:
            client.telemetry.tracer.abandon(request_id)
        # Re-seal under the *current* key view: a retry provoked by a
        # stale-key reject (mid-rotation) only heals if it is encrypted
        # against the rotated keys, so this is where a stale client
        # discovers a rotation.
        request, keys = client._encode(self, discover=True)
        again = _Attempt(self, replace(request, request_id=client._next_id()), keys, False)
        client.loop.schedule(delay, again.launch)

    def settle(self, ok: bool, items: List[str], request_id: int, hedged: bool = False) -> None:
        """Complete the call, once: classify it, close its traces and
        hand the result to the application."""
        if self.settled:
            return
        self.settled = True
        client = self.client
        client.calls_completed += 1
        if not ok:
            outcome = "failed"
        elif hedged:
            outcome = "hedged"
        elif self.retries > 0:
            outcome = "retried"
        else:
            outcome = "ok"
        client.outcomes[outcome] += 1
        if self.trace_id is not None:
            client.causal.settle_call(self.trace_id, ok)
        telemetry = client.telemetry
        if telemetry is not None:
            telemetry.tracer.end_trace(request_id, ok)
            for loser in sorted(self.live_ids):
                if loser != request_id:
                    telemetry.tracer.abandon(loser)
        if self.on_complete is not None:
            self.on_complete(CompletedCall(
                self.verb, self.user, ok, items, self.started_at, client.loop.now,
                request_id,
            ))


class _Attempt:
    """One wire attempt of a :class:`_Call`: the first, a retry or the
    hedge.  Its bound methods are the callbacks of its round trip."""

    __slots__ = ("call", "request", "keys", "hedged", "index", "entry", "response")

    def __init__(self, call: _Call, request: Request, keys: protocol.CallKeys,
                 hedged: bool) -> None:
        self.call = call
        self.request = request
        self.keys = keys
        self.hedged = hedged
        #: The call's attempt index at launch.
        self.index = 0
        #: The UA instance (or relay) this attempt was sent to.
        self.entry: Any = None
        self.response: Optional[Response] = None

    def launch(self) -> None:
        """Put the attempt on the wire and arm its timers."""
        call = self.call
        if call.settled:
            return
        client = call.client
        request = self.request
        if call.expiry is not None:
            remaining = call.expiry - client.loop.now
            if remaining <= 0.0:
                # Budget spent before launch (e.g. the encrypt or
                # backoff delay consumed the rest).
                if not self.hedged:
                    call.settle(False, [], request.request_id)
                return
            # Stamp the budget remaining *now*: a hedge launched late
            # carries less budget than the primary did.
            request = self.request = stamp_deadline(request, remaining)
        self.index = call.attempt_index
        call.live_ids.add(request.request_id)
        try:
            # Sharded fleets route per attempt on the request nonce
            # (never anything user-derived); a retry's fresh nonce
            # re-rolls its shard, which is what makes failover to a
            # sibling shard automatic when one shard is down.
            self.entry = client.service.entry_for(request)
        except BalancerError:
            # Every UA instance is ejected right now: a lost message,
            # counted as a retryable error when it is retried.
            if not self.hedged and call.retries < client.max_retries:
                client.retryable_errors += 1
            call.give_up(self)
            return
        if call.trace_id is not None:
            # Each wire attempt (retry or hedge) re-carries the call's
            # trace id; the UA front door strips it before the request
            # can enter a shuffle buffer.
            request = self.request = client.causal.stamp(request, call.trace_id)
        if client.telemetry is not None:
            client.telemetry.tracer.record_hop(request.request_id, "client", "ua")
        ship(client.network, client.codec, call.address, self.entry.address, request,
             self.deliver)
        if not self.hedged:
            if client.request_timeout is not None:
                client.loop.schedule(client.request_timeout, self.timeout)
            if client.hedge_delay is not None:
                client.loop.schedule(client.hedge_delay, self.hedge)

    def deliver(self, request: Request) -> None:
        """The request reached the entry point."""
        self.entry.receive_request(request, self.reply)

    def reply(self, response: Response) -> None:
        """The entry point answered: carry the response to the client."""
        call = self.call
        client = call.client
        if client.telemetry is not None:
            # Same virtual instant as the ua->client wire record.
            client.telemetry.tracer.record_hop(response.request_id, "ua", "client")
        ship(client.network, client.codec, self.entry.address, call.address, response,
             self.received)

    def received(self, response: Response) -> None:
        """The response arrived: decrypt it, then :meth:`finish`."""
        self.response = response
        client = self.call.client
        # Never cancelled, so no handle: post, not schedule.
        client.loop.post(client.costs.client_decrypt_seconds(client.config), self.finish)

    def finish(self) -> None:
        """Settle the call with the decrypted answer, or give up on it."""
        call = self.call
        if call.settled:
            return
        client = call.client
        response = self.response
        if is_retryable(response):
            client.retryable_errors += 1
            call.give_up(self)
            return
        items: List[str] = []
        if response.ok and call.verb == Verb.GET:
            try:
                items = protocol.client_decode_response(
                    client.provider, client.config, response, self.keys, codec=client.codec
                )
            except Exception:
                # Mid-rotation, a blob can be sealed against a temporary
                # key recovered under the wrong epoch (providers without
                # authenticated decryption yield garbage instead of
                # raising upstream): a retryable error like any other,
                # whose retry re-encodes under the current epoch.
                client.retryable_errors += 1
                call.give_up(self)
                return
        call.settle(response.ok, items, self.request.request_id, self.hedged)

    def timeout(self) -> None:
        """No answer within ``request_timeout`` (primary attempts only)."""
        call = self.call
        if call.settled or call.attempt_index != self.index:
            return
        call.client.timeouts += 1
        call.give_up(self)

    def hedge(self) -> None:
        """No answer within ``hedge_delay``: launch the call's one hedge,
        this attempt under a fresh id."""
        call = self.call
        if call.settled or call.hedged or call.attempt_index != self.index:
            return
        call.hedged = True
        client = call.client
        client.hedges_launched += 1
        duplicate = replace(self.request, request_id=client._next_id())
        _Attempt(call, duplicate, self.keys, hedged=True).launch()


@dataclass
class DirectClient:
    """Baseline client: talks to the LRS with no privacy protection."""

    loop: EventLoop
    network: Network
    lrs_picker: Callable[[], object]
    calls_completed: int = 0
    #: Per-client request ids, from 1: same-seed baseline runs issue the
    #: same ids whatever else ran in the process.
    _request_ids: Any = field(
        default_factory=lambda: itertools.count(1), init=False, repr=False
    )

    def post(
        self,
        user: str,
        item: str,
        payload: Optional[str] = None,
        client_address: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedCall], None]] = None,
    ) -> None:
        """Issue ``post`` directly against an LRS frontend."""
        address = client_address or f"client-{user}"
        request = make_post(user, item, payload, client_address=address,
                            request_id=next(self._request_ids))
        self._dispatch(request, address, user, on_complete)

    def get(
        self,
        user: str,
        client_address: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedCall], None]] = None,
    ) -> None:
        """Issue ``get`` directly against an LRS frontend."""
        address = client_address or f"client-{user}"
        request = make_get(user, client_address=address,
                           request_id=next(self._request_ids))
        self._dispatch(request, address, user, on_complete)

    def _dispatch(
        self,
        request: Request,
        address: str,
        user: str,
        on_complete: Optional[Callable[[CompletedCall], None]],
    ) -> None:
        started_at = self.loop.now
        backend = self.lrs_picker()
        if address not in self.network.roles:
            self.network.register_role(address, "client")
        if backend.address not in self.network.roles:
            self.network.register_role(backend.address, "lrs")

        def finish(response: Response) -> None:
            self.calls_completed += 1
            if on_complete is not None:
                on_complete(
                    CompletedCall(
                        verb=request.verb,
                        user=user,
                        ok=response.ok,
                        items=list(response.fields.get("items", [])),
                        started_at=started_at,
                        completed_at=self.loop.now,
                        request_id=request.request_id,
                    )
                )

        def reply_to_client(response: Response) -> None:
            self.network.send(
                backend.address, address, response, response.size_bytes(), finish
            )

        self.network.send(
            address,
            backend.address,
            request,
            request.size_bytes(),
            lambda req: backend.handle(req, reply_to_client),
        )
