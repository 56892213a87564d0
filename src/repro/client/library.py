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
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.crypto.provider import CryptoProvider
from repro.overload.deadline import stamp_deadline
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.proxy.costs import ProxyCostModel
from repro.proxy.epochs import stamp_epoch
from repro.proxy.layers import RETRYABLE_STATUS
from repro.proxy.service import PProxService
from repro.rest.codec import ship
from repro.rest.messages import Request, Response, Verb, make_get, make_post
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import BalancerError
from repro.simnet.network import Network
from repro.telemetry.types import TelemetryLike

if TYPE_CHECKING:  # import cycle: repro.context hands out clients
    from repro.context import SimContext

__all__ = ["PProxClient", "DirectClient", "CompletedCall", "OUTCOME_CLASSES"]

#: Request-outcome classes counted by ``PProxClient.outcomes`` (and the
#: ``pprox_request_outcome_total`` counter family built over them).
OUTCOME_CLASSES = ("ok", "retried", "hedged", "failed")


@dataclass(frozen=True)
class CompletedCall:
    """Result handed to the application when a call completes."""

    verb: str
    user: str
    ok: bool
    items: List[str]
    started_at: float
    completed_at: float
    request_id: int

    @property
    def latency(self) -> float:
        """Round-trip service latency as the injector measures it."""
        return self.completed_at - self.started_at


@dataclass(init=False)
class PProxClient:
    """User-side library instance bound to a PProx deployment.

    ``PProxClient(ctx, service, request_timeout=0.5, ...)``: the client
    draws its loop, network, provider, cost model, telemetry hub, wire
    codec and request-id counter from *ctx*, a
    :class:`repro.context.SimContext`, and (unless *rng* is given) its
    backoff jitter from the context's ``client`` RNG stream.
    """

    loop: EventLoop
    network: Network
    provider: CryptoProvider
    service: PProxService
    costs: ProxyCostModel
    rng: random.Random
    #: Multi-tenant deployments: this application's public keys (the
    #: shared service has no single client material) and its public
    #: tenant label, stamped on every request.
    material: Optional[protocol.ClientMaterial] = None
    tenant: Optional[str] = None
    #: Abandon an attempt after this many seconds (None: wait forever).
    request_timeout: Optional[float] = None
    #: Re-issue a timed-out call this many times before reporting
    #: failure.  Retried posts are at-least-once: a retry racing a slow
    #: original can insert duplicate feedback, which CCO deduplicates.
    max_retries: int = 0
    #: Optional :class:`repro.telemetry.Telemetry` hub.  The client is
    #: where traces begin (t0 hop) and end (settle).
    telemetry: Optional[TelemetryLike] = None
    #: Exponential-backoff schedule for retries: the n-th retry waits
    #: ``backoff_base * 2**(n-1) + U(0, backoff_jitter)``
    #: seconds, with the jitter drawn from the client's own seeded RNG
    #: (deterministic for a fixed seed).  ``backoff_base == 0``
    #: reproduces the original immediate-retry behaviour.
    backoff_base: float = 0.0
    backoff_jitter: float = 0.0
    #: Launch one hedged duplicate of a call (fresh request id, same
    #: payload) if no response arrived within this many seconds; first
    #: answer wins, the loser's trace is abandoned.  ``None`` disables
    #: hedging.  Hedges do not consume the retry budget.
    hedge_delay: Optional[float] = None
    #: End-to-end time budget per call (seconds).  Each attempt —
    #: original, retry or hedge — is stamped with the budget *remaining
    #: at launch* (one shared expiry per call, so a hedge can never
    #: double-spend), letting every hop shed the request once the
    #: client has given up.  No retry is scheduled to land past the
    #: expiry.  ``None`` disables deadline propagation.
    deadline_budget: Optional[float] = None
    #: Cache the service's key material/epoch view for this many
    #: seconds, modelling a client that does not observe a rotation
    #: immediately.  A retryable error invalidates the cache at once
    #: (epoch discovery through the existing re-encode-on-retry path).
    #: ``None`` reads live on every encode — the legacy behaviour.
    epoch_ttl: Optional[float] = None
    calls_started: int = 0
    calls_completed: int = 0
    retries_performed: int = 0
    timeouts: int = 0
    #: Retryable (e.g. 503 stale-key) error responses observed.
    retryable_errors: int = 0
    hedges_launched: int = 0
    #: Epoch changes this client discovered (cache expiry or retry).
    epoch_bumps: int = 0
    #: Settled-call classification: ok / retried / hedged / failed.
    outcomes: Dict[str, int] = field(default_factory=dict)

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
        backoff_base: float = 0.0,
        backoff_jitter: float = 0.0,
        hedge_delay: Optional[float] = None,
        deadline_budget: Optional[float] = None,
        epoch_ttl: Optional[float] = None,
        causal: Optional[Any] = None,
    ) -> None:
        self.loop = ctx.loop
        self.network = ctx.network
        # The one the service builders memoized onto the context.
        self.provider = ctx.resolved_provider()
        self.service = service
        self.costs = ctx.costs
        self.rng = rng if rng is not None else ctx.rng.stream("client")
        self.material = material
        self.tenant = tenant
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.telemetry = ctx.telemetry
        self.backoff_base = backoff_base
        self.backoff_jitter = backoff_jitter
        self.hedge_delay = hedge_delay
        self.deadline_budget = deadline_budget
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
        self.retryable_errors = 0
        self.hedges_launched = 0
        self.epoch_bumps = 0
        #: (expires_at, material, epoch view) — set only with epoch_ttl.
        self._material_cache: Optional[tuple] = None
        self.outcomes = {outcome: 0 for outcome in OUTCOME_CLASSES}

    @property
    def config(self) -> PProxConfig:
        """The deployment's configuration."""
        return self.service.config

    @property
    def client_material(self) -> protocol.ClientMaterial:
        """The key material this library encrypts against.

        With :attr:`epoch_ttl` set, the material (and the epoch view it
        belongs to) is cached for the TTL — a deliberately stale client
        that exercises the dual-epoch acceptance window mid-rotation.
        """
        if self.material is not None:
            return self.material
        if self.epoch_ttl is None:
            return self.service.client_material
        cache = self._material_cache
        if cache is not None and self.loop.now < cache[0]:
            return cache[1]
        material = self.service.client_material
        epochs = self.service.wire_epochs
        if cache is not None and cache[2] != epochs:
            self.epoch_bumps += 1
        self._material_cache = (self.loop.now + self.epoch_ttl, material, epochs)
        return material

    def _stamp_epoch(self, encoded: Request) -> Request:
        """Tag the request with the UA epoch its encryption targets.

        The tag is fixed-width (constant request size preserved) and is
        stripped by the UA before the shuffle buffer.  Requests built
        from cached material carry the *cached* epoch — the honest view
        of a stale client.  Pre-epoch services stamp nothing.
        """
        cache = self._material_cache
        if cache is not None and self.loop.now < cache[0]:
            epochs = cache[2]
        else:
            epochs = self.service.wire_epochs
        if not epochs:
            return encoded
        return stamp_epoch(encoded, epochs.get("UA"))

    def _note_retry_epoch(self) -> None:
        """Epoch discovery on retry: drop the cached material so the
        re-encode sees the service's current keys, and count a bump
        when the epoch actually moved underneath this client."""
        if self.epoch_ttl is None:
            return
        cache = self._material_cache
        self._material_cache = None
        if cache is not None and cache[2] != self.service.wire_epochs:
            self.epoch_bumps += 1

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

        def encode():
            fresh = make_post(
                user, item, payload, client_address=address,
                request_id=self._next_id(),
            )
            encoded, keys = protocol.client_encode_post(
                self.provider, self.client_material, self.config, fresh,
                codec=self.codec,
            )
            if self.tenant is not None:
                encoded = encoded.with_fields(tenant=self.tenant)
            return self._stamp_epoch(encoded), keys

        encoded, keys = encode()
        self._dispatch(encoded, address, user, keys, on_complete, re_encode=encode)

    def get(
        self,
        user: str,
        client_address: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedCall], None]] = None,
    ) -> None:
        """Issue ``get(u)`` through the proxy service."""
        address = client_address or f"client-{user}"

        def encode():
            fresh = make_get(
                user, client_address=address, request_id=self._next_id()
            )
            encoded, keys = protocol.client_encode_get(
                self.provider, self.client_material, self.config, fresh,
                codec=self.codec,
            )
            if self.tenant is not None:
                encoded = encoded.with_fields(tenant=self.tenant)
            return self._stamp_epoch(encoded), keys

        encoded, keys = encode()
        self._dispatch(encoded, address, user, keys, on_complete, re_encode=encode)

    def _dispatch(
        self,
        request: Request,
        address: str,
        user: str,
        keys: protocol.CallKeys,
        on_complete: Optional[Callable[[CompletedCall], None]],
        re_encode: Callable[[], Any],
    ) -> None:
        started_at = self.loop.now
        self.calls_started += 1
        telemetry = self.telemetry
        causal = self.causal
        trace_id = causal.start_call(request.verb) if causal is not None else None
        if address not in self.network.roles:
            self.network.register_role(address, "client")
        # One expiry for the whole call: retries and hedges all draw
        # down the same budget, so concurrent attempts cannot spend it
        # twice.
        expiry = (
            started_at + self.deadline_budget
            if self.deadline_budget is not None
            else None
        )
        encrypt_delay = self.costs.client_encrypt_seconds(self.config)
        call_state: Dict[str, Any] = {
            "settled": False,
            "attempt": 0,
            "retries": 0,
            "hedged": False,
            "live_ids": set(),
        }
        live_ids: Set[int] = call_state["live_ids"]

        def settle(ok: bool, items: List[str], request_id: int, hedged: bool = False) -> None:
            if call_state["settled"]:
                return
            call_state["settled"] = True
            self.calls_completed += 1
            if not ok:
                outcome = "failed"
            elif hedged:
                outcome = "hedged"
            elif call_state["retries"] > 0:
                outcome = "retried"
            else:
                outcome = "ok"
            self.outcomes[outcome] += 1
            if causal is not None and trace_id is not None:
                causal.settle_call(trace_id, ok)
            if telemetry is not None:
                telemetry.tracer.end_trace(request_id, ok)
                for loser in sorted(live_ids):
                    if loser != request_id:
                        telemetry.tracer.abandon(loser)
            if on_complete is not None:
                on_complete(
                    CompletedCall(
                        verb=request.verb,
                        user=user,
                        ok=ok,
                        items=items,
                        started_at=started_at,
                        completed_at=self.loop.now,
                        request_id=request_id,
                    )
                )

        def backoff_delay(retry_number: int) -> float:
            if self.backoff_base <= 0:
                return 0.0
            exponent = max(0, retry_number - 1)
            delay = self.backoff_base * (2.0 ** exponent)
            if self.backoff_jitter > 0:
                delay += self.backoff_jitter * self.rng.random()
            return delay

        def retry_after(previous: Request) -> None:
            """Re-issue the call under a fresh id, after backoff."""
            delay = backoff_delay(call_state["retries"] + 1)
            if expiry is not None and self.loop.now + delay >= expiry:
                # The retry would launch with a spent budget; every hop
                # would shed it on sight.  Settle instead of scheduling
                # doomed work.
                live_ids.discard(previous.request_id)
                settle(False, [], previous.request_id)
                return
            call_state["attempt"] += 1
            call_state["retries"] += 1
            self.retries_performed += 1
            live_ids.discard(previous.request_id)
            if telemetry is not None:
                telemetry.tracer.abandon(previous.request_id)
            # Re-seal under the *current* client material: a retry
            # provoked by a stale-key 503 (mid-rotation) only heals if
            # it is encrypted against the rotated keys.  Any cached
            # epoch view is dropped first — this is where a stale
            # client discovers a rotation.
            self._note_retry_epoch()
            fresh, fresh_keys = re_encode()
            retry = replace(fresh, request_id=self._next_id())
            if delay > 0:
                self.loop.schedule(delay, lambda: attempt(retry, fresh_keys))
            else:
                attempt(retry, fresh_keys)

        def attempt(
            attempt_request: Request,
            attempt_keys: protocol.CallKeys,
            hedged: bool = False,
        ) -> None:
            if call_state["settled"]:
                return
            if expiry is not None:
                remaining = expiry - self.loop.now
                if remaining <= 0.0:
                    # Budget spent before launch (e.g. the encrypt or
                    # backoff delay consumed the rest).
                    if hedged:
                        return
                    settle(False, [], attempt_request.request_id)
                    return
                # Stamp the budget remaining *now*: a hedge launched
                # late carries less budget than the primary did.
                attempt_request = stamp_deadline(attempt_request, remaining)
            attempt_index = call_state["attempt"]
            live_ids.add(attempt_request.request_id)
            try:
                # Sharded fleets route per attempt on the request nonce
                # (never anything user-derived); a retry's fresh nonce
                # re-rolls its shard, which is what makes failover to a
                # sibling shard automatic when one shard is down.
                entry = self.service.entry_for(attempt_request)
            except BalancerError:
                # Every UA instance is ejected right now.  Treat like a
                # lost message: back off and retry while budget lasts.
                live_ids.discard(attempt_request.request_id)
                if hedged:
                    return
                if call_state["retries"] < self.max_retries:
                    self.retryable_errors += 1
                    retry_after(attempt_request)
                else:
                    settle(False, [], attempt_request.request_id)
                return

            def deliver_response(response: Response) -> None:
                decrypt_delay = self.costs.client_decrypt_seconds(self.config)
                # Never cancelled, so no handle: post, not schedule.
                self.loop.post(decrypt_delay, lambda: finish(response))

            def finish(response: Response) -> None:
                if call_state["settled"]:
                    return
                retryable = (
                    response.status == RETRYABLE_STATUS
                    or bool(response.fields.get("retryable"))
                )
                if not response.ok and retryable:
                    self.retryable_errors += 1
                    if not hedged and call_state["retries"] < self.max_retries:
                        retry_after(attempt_request)
                        return
                    if hedged:
                        # A failed hedge never settles the call; the
                        # primary attempt (or its timeout) decides.
                        live_ids.discard(attempt_request.request_id)
                        if telemetry is not None:
                            telemetry.tracer.abandon(attempt_request.request_id)
                        return
                items: List[str] = []
                if response.ok and request.verb == Verb.GET:
                    try:
                        items = protocol.client_decode_response(
                            self.provider, self.config, response, attempt_keys,
                            codec=self.codec,
                        )
                    except Exception:
                        # Mid-rotation, a blob can be sealed against a
                        # temporary key recovered under the wrong epoch
                        # (providers without authenticated decryption
                        # yield garbage instead of raising upstream).
                        # Treat exactly like a retryable error: the
                        # retry re-encodes under the current epoch.
                        self.retryable_errors += 1
                        if not hedged and call_state["retries"] < self.max_retries:
                            retry_after(attempt_request)
                            return
                        if hedged:
                            live_ids.discard(attempt_request.request_id)
                            if telemetry is not None:
                                telemetry.tracer.abandon(attempt_request.request_id)
                            return
                        settle(False, [], attempt_request.request_id)
                        return
                settle(response.ok, items, attempt_request.request_id, hedged=hedged)

            def reply_to_client(response: Response) -> None:
                if telemetry is not None:
                    # Same virtual instant as the ua->client wire record.
                    telemetry.tracer.record_hop(response.request_id, "ua", "client")
                ship(self.network, self.codec, entry.address, address, response,
                     deliver_response)

            def on_timeout() -> None:
                if call_state["settled"] or call_state["attempt"] != attempt_index:
                    return
                self.timeouts += 1
                if call_state["retries"] < self.max_retries:
                    retry_after(attempt_request)
                else:
                    settle(False, [], attempt_request.request_id)

            def launch_hedge() -> None:
                if (
                    call_state["settled"]
                    or call_state["hedged"]
                    or call_state["attempt"] != attempt_index
                ):
                    return
                call_state["hedged"] = True
                self.hedges_launched += 1
                hedge = replace(attempt_request, request_id=self._next_id())
                attempt(hedge, attempt_keys, hedged=True)

            if causal is not None and trace_id is not None:
                # Each wire attempt (retry or hedge) re-carries the
                # call's trace id; the UA front door strips it before
                # the request can enter a shuffle buffer.
                attempt_request = causal.stamp(attempt_request, trace_id)
            if telemetry is not None:
                telemetry.tracer.record_hop(attempt_request.request_id, "client", "ua")
            ship(self.network, self.codec, address, entry.address, attempt_request,
                 lambda req: entry.receive_request(req, reply_to_client))
            if not hedged and self.request_timeout is not None:
                self.loop.schedule(self.request_timeout, on_timeout)
            if not hedged and self.hedge_delay is not None:
                self.loop.schedule(self.hedge_delay, launch_hedge)

        if encrypt_delay > 0:
            self.loop.post(encrypt_delay, lambda: attempt(request, keys))
        else:
            attempt(request, keys)


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
