"""The UA and IA proxy layer instances (data plane).

Each instance models one proxy enclave and its host node, as
described in §5: an event-driven server (outside the enclave) feeding
a pool of data-processing workers (inside the enclave) through a
concurrent queue, a routing table ``T`` for pending requests, and a
shuffle buffer for the direction that instance randomizes (UA:
requests, IA: responses).

The paper describes that architecture once and instantiates it twice,
and so does this module: :class:`_ProxyStage` is the stage both layers
share, :class:`UserAnonymizer` and :class:`ItemAnonymizer` add only
what differs between the roles.  A request crosses a stage as

    admit -> [shuffle] -> transform -> [seal] -> forward

(deadline check, admission and the bounded ingress queue; the shuffle
buffer, on the UA; the cryptographic rewrite on the enclave node; one
sealed envelope per flush in batch-envelope mode; the wire), and its
response as ``[shuffle] -> transform -> return`` (the shuffle buffer,
on the IA).  Every privacy rule of the data plane — shed only
pre-shuffle, the uniform reject on every protected hop, stale
generations go inert — is stated exactly once, in the stage.

Processing is charged to the instance's 2-core
:class:`repro.simnet.node.SimNode` using the calibrated
:class:`repro.proxy.costs.ProxyCostModel`; transformations perform the
*actual* cryptographic rewrites from :mod:`repro.proxy.protocol`.
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.crypto.envelope import EnvelopeCodec, decode_identifier
from repro.crypto.keys import LayerKeys
from repro.crypto.provider import CryptoProvider
from repro.overload.admission import AdmissionController, OverloadSignal
from repro.overload.deadline import charge, decode_deadline, stamp_deadline
from repro.overload.policy import OverloadPolicy
from repro.overload.shedding import (
    STAGE_ADMISSION,
    STAGE_DEADLINE,
    STAGE_QUEUE,
    STAGE_UPSTREAM,
    uniform_reject,
)
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.proxy.costs import ProxyCostModel
from repro.proxy.epochs import epoch_window_of, window_candidates
from repro.proxy.shuffler import ShuffleBuffer
from repro.rest.codec import BatchEnvelope, WireCodec, ship
from repro.rest.header import EPOCH, TRACE, strip
from repro.rest.messages import Request, Response, Verb
from repro.rest.routing import RoutingTable
from repro.sgx.enclave import Enclave
from repro.sgx.provisioning import IA_SECRET_K, IA_SECRET_SK, UA_SECRET_K, UA_SECRET_SK
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import BalancerError, LoadBalancer
from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.simnet.queueing import ConcurrentQueue
from repro.telemetry.hub import Telemetry

__all__ = [
    "UserAnonymizer",
    "ItemAnonymizer",
    "ProxyRuntime",
    "transform_error_response",
]

ReplyFn = Callable[[Response], None]

def transform_error_response(request: Request, exc: Exception) -> Response:
    """A retryable error reply for a failed cryptographic transform.

    The reply is the canonical uniform reject: not even the exception
    *type* crosses the wire anymore (exception messages can quote the
    payload being transformed, and type names correlate with layer
    state — a shed, a stale key and a breaker trip must all look the
    same to the other layer and to the wire adversary).  The cause
    survives only in the instance's local ``transform_errors`` counter.
    """
    del exc  # cause is deliberately not serialized
    return uniform_reject(request.request_id)


@dataclass
class ProxyRuntime:
    """Shared wiring every proxy instance needs."""

    loop: EventLoop
    network: Network
    rng: random.Random
    provider: CryptoProvider
    config: PProxConfig
    costs: ProxyCostModel
    #: The :class:`repro.rest.codec.WireCodec` every protected hop is
    #: framed with; a batch-capable codec switches the UA to one sealed
    #: envelope per shuffle flush.
    codec: WireCodec
    #: Optional :class:`repro.telemetry.Telemetry` hub.  When absent,
    #: the data plane runs with zero instrumentation overhead.
    telemetry: Optional[Telemetry] = None
    #: Optional overload-protection knobs.  ``None`` (the default)
    #: means the layers run exactly the pre-overload data plane: no
    #: ingress queues, no admission control, no deadline enforcement.
    overload: Optional[OverloadPolicy] = None
    #: Optional :class:`repro.obs.causal.CausalTracer`.  The UA front
    #: door notifies it when a trace id is severed; batch spans are
    #: wired onto the shuffle buffers (:func:`repro.obs.causal.instrument_causal`).
    causal: Optional[Any] = None
    #: Current IA-layer public material (set by ``assemble``; kept
    #: a callable so it tracks live key rotation).  Needed by the UA in
    #: batch-envelope mode to seal the flushed batch under ``pkIA``.
    ia_public: Optional[Callable[[], Any]] = None


class _BatchCollector:
    """The sink of a batch-envelope flush: its transformed requests.

    Each flushed entry contributes exactly once — a transformed
    request via :meth:`add`, or a :meth:`skip` when its transform
    failed or its instance generation went stale — and the batch seals
    (hands its requests to *seal*) when the last contribution lands.
    ``sealed`` guards against the flush firing twice.
    """

    __slots__ = ("expected", "requests", "sealed", "seal")

    def __init__(self, expected: int, seal: Callable[[list], None]) -> None:
        self.expected = expected
        self.requests: list = []
        self.sealed = False
        self.seal = seal

    def add(self, request: Request) -> None:
        self.requests.append(request)
        self._maybe_seal()

    def skip(self) -> None:
        self.expected -= 1
        self._maybe_seal()

    def _maybe_seal(self) -> None:
        if self.sealed or len(self.requests) < self.expected:
            return
        self.sealed = True
        if self.requests:
            self.seal(self.requests)


def _layer_keys(enclave: Enclave, sk_slot: str, k_slot: str) -> LayerKeys:
    """Reconstruct the layer's key material from sealed enclave slots."""
    return LayerKeys(
        private_key=enclave.secret(sk_slot),
        symmetric_key=enclave.secret(k_slot),
    )


@dataclass
class _ProxyStage:
    """One proxy instance of either layer: everything the roles share.

    Subclasses set ``_role`` (``"ua"``/``"ia"``), ``_upstream_role``,
    ``_request_leg`` (the role's request-leg cost, a
    :class:`ProxyCostModel` method), ``_key_slots`` and
    ``_shuffles_requests`` (which of the two legs
    passes through the shuffle buffer), declare that leg's buffer as a
    field, and implement the role's cryptographic rewrites and wire
    sends.
    """

    name: str
    runtime: ProxyRuntime
    enclave: Enclave
    _: KW_ONLY
    node: SimNode = None  # type: ignore[assignment]
    routing: RoutingTable = None  # type: ignore[assignment]
    requests_processed: int = 0
    responses_processed: int = 0
    #: Crash-stop failure flag: a dead instance silently drops traffic
    #: (clients recover via timeout + retry).
    alive: bool = True
    #: Bumped on every restart; callbacks scheduled by a previous life
    #: carry their generation and go inert once it is stale.
    generation: int = 0
    #: Transforms rejected with a retryable error (e.g. stale keys
    #: after a breach-response rotation).
    transform_errors: int = 0
    #: Responses dropped because their routing entry did not survive a
    #: crash/restart (the client recovers via timeout + retry).
    stale_responses: int = 0
    #: Messages decrypted under the previous epoch's private key during
    #: a dual-epoch window (always re-encrypted forward under the new).
    previous_epoch_decrypts: int = 0
    #: Virtual time the previous epoch's keys were last needed; the
    #: rotation coordinator retires the old epoch only after this has
    #: been quiet longer than the shuffle timeout.
    last_previous_epoch_use: Optional[float] = None
    #: Bounded ingress queue (overload mode only; ``None`` otherwise).
    ingress: Optional[ConcurrentQueue] = None
    #: Requests shed at this instance, keyed by ``(stage, reason)``.
    shed_totals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Requests rejected because every upstream (IA instance, LRS
    #: backend) was ejected.
    no_upstream: int = 0
    #: Non-ok responses rewritten to the uniform reject before they
    #: crossed a protected hop.
    rejects_normalized: int = 0
    #: Telemetry hooks (set by ``instrument_overload``): called per shed
    #: with ``(stage, reason)`` / per arriving deadline with the
    #: remaining budget in seconds.
    shed_observer: Optional[Callable[[str, str], None]] = None
    deadline_observer: Optional[Callable[[float], None]] = None
    _pump_window: int = 0
    _announced_sheds: Set[Tuple[str, str]] = field(default_factory=set)

    #: Front-door admission controller.  Only the UA declares (and, in
    #: overload mode, arms) one: it is the front door, the IA is not.
    admission = None
    #: The shuffle buffer sits on one leg of a stage.  Each role
    #: declares the field of the leg it randomizes; the other leg's
    #: stays this ``None``, which sends its traffic straight to the node.
    request_buffer = None
    response_buffer = None

    def __post_init__(self) -> None:
        runtime = self.runtime
        if self.node is None:
            self.node = SimNode(name=self.name, loop=runtime.loop, cores=2)
        if self.routing is None:
            self.routing = RoutingTable(name=f"T-{self._role}")
        if runtime.config.shuffling and self.shuffle_buffer is None:
            leg, release = (
                ("request", self._start_request)
                if self._shuffles_requests
                else ("response", self._start_response)
            )
            buffer = ShuffleBuffer(
                loop=runtime.loop,
                rng=runtime.rng,
                size=runtime.config.shuffle_size,
                timeout=runtime.config.shuffle_timeout,
                release=release,
                name=f"{self.name}-{leg}s",
            )
            setattr(self, f"{leg}_buffer", buffer)
        self._arm_overload()

    def _arm_overload(self, restarted: bool = False) -> None:
        """Overload-mode wiring, shared by construction and restart."""
        policy = self.runtime.overload
        if policy is None:
            return
        if restarted or self.ingress is None:
            # Pre-crash queue entries are crash-stop casualties exactly
            # like the shuffle batch: the new life starts empty.
            label = f"-g{self.generation}" if restarted else ""
            self.ingress = policy.make_ingress_queue(
                f"{self.name}-ingress{label}", clock=lambda: self.runtime.loop.now
            )
        self.ingress.on_shed = self._shed_from_queue
        # The pump never throttles below a full shuffle batch: bounding
        # concurrency must not starve the buffer under S.  (On the IA,
        # response-side submissions share the node, so the window must
        # cover a full flushed batch of S responses too.)
        self._pump_window = max(policy.max_inflight, self.runtime.config.shuffle_size)

    #: Network address of this instance: its name (read about ten times
    #: a request, so the getter is C code, not a Python frame).
    address = property(attrgetter("name"))

    @property
    def shuffle_buffer(self) -> Optional[ShuffleBuffer]:
        """The shuffle buffer this stage randomizes — requests on a UA,
        responses on an IA — or ``None`` with shuffling off."""
        return self.request_buffer if self._shuffles_requests else self.response_buffer

    @property
    def pending(self) -> int:
        """Outstanding work (load-balancer signal)."""
        buffer = self.shuffle_buffer
        buffered = buffer.pending if buffer is not None else 0
        queued = self.ingress.depth if self.ingress is not None else 0
        return self.node.pending + len(self.routing) + buffered + queued

    @property
    def sheds(self) -> int:
        """Total requests shed at this instance (all stages)."""
        return sum(self.shed_totals.values())

    def overload_signal(self) -> OverloadSignal:
        """Point-in-time overload indicators for this instance."""
        depth = self.ingress.depth if self.ingress is not None else 0
        sojourn = self.ingress.oldest_sojourn() if self.ingress is not None else 0.0
        pressure = (
            self.runtime.costs.sgx.paging_pressure(len(self.routing))
            if self.runtime.config.sgx
            else 0.0
        )
        return OverloadSignal(
            queue_depth=depth,
            queue_sojourn=sojourn,
            inflight=self.node.pending,
            epc_pressure=pressure,
        )

    def _count_shed(self, stage: str, reason: str) -> None:
        key = (stage, reason)
        self.shed_totals[key] = self.shed_totals.get(key, 0) + 1
        if self.shed_observer is not None:
            self.shed_observer(stage, reason)
        telemetry = self.runtime.telemetry
        if telemetry is not None and key not in self._announced_sheds:
            # Sparse: one event per (stage, reason) per instance life;
            # volumes live in pprox_shed_total.  Payload carries no
            # request identifiers, so the role's redaction rules have
            # nothing to scrub but also nothing to leak.
            self._announced_sheds.add(key)
            telemetry.event_log.emit(
                "shed",
                self._role,
                {
                    "event": "request_shed",
                    "stage": stage,
                    "reason": reason,
                    "instance": self.name,
                },
            )

    def _shed_from_queue(self, entry: tuple, reason: str) -> None:
        request, reply = entry[:2]
        self._count_shed(STAGE_QUEUE, reason)
        reply(uniform_reject(request.request_id))

    # -- lifecycle -----------------------------------------------------

    def fail(self) -> int:
        """Crash-stop this instance: all in-flight and future traffic
        addressed to it is lost, including its buffered shuffle batch.
        Returns the number of buffered entries drained."""
        self.alive = False
        buffer = self.shuffle_buffer
        return buffer.drain() if buffer is not None else 0

    def restart(self, enclave: Enclave) -> None:
        """Come back from a crash with a freshly provisioned enclave.

        The caller (see :meth:`PProxService.restart_instance
        <repro.proxy.service.PProxService.restart_instance>`) must have
        completed remote attestation and key provisioning on *enclave*
        first — an unattested enclave holds no layer secrets and could
        not serve.  Pre-crash routing state is gone (crash-stop), so a
        fresh routing table starts this life; late responses addressed
        to the old life are counted in ``stale_responses`` and dropped.
        """
        if self.alive:
            raise RuntimeError(f"instance {self.name!r} is alive; nothing to restart")
        if not enclave.attested:
            raise ValueError(
                f"enclave {enclave.name!r} must complete attestation and "
                "provisioning before it can serve"
            )
        self.generation += 1
        self.enclave = enclave
        self.routing = RoutingTable(name=f"T-{self._role}-g{self.generation}")
        self._arm_overload(restarted=True)
        self.alive = True

    def _submit(self, service_time: float, step: Callable[..., None], *args: Any,
                stale: Optional[Callable[[], None]] = None) -> None:
        """Charge *service_time* to the node, then run ``step(*args)``.

        The generation guard: a callback scheduled by a previous life
        of this instance (or landing after its crash) goes inert.  Only
        *stale* still runs then, so a batch collector is never left
        waiting for a contribution that died with the instance.
        """
        generation = self.generation

        def run() -> None:
            if self.alive and generation == self.generation:
                step(*args)
            elif stale is not None:
                stale()

        self.node.submit(service_time, run)

    # -- request path: admit -> [shuffle] -> transform -> forward ------

    def receive_request(self, request: Request, reply: ReplyFn) -> None:
        """Entry point for a request delivered by the network (from a
        client at the UA, from a UA at the IA): the front door."""
        if not self.alive:
            return
        request = self._strip_tags(request)
        if self.ingress is None:
            self._enter((request, reply, None, None))
            return
        remaining = decode_deadline(request)
        if remaining is not None and self.deadline_observer is not None:
            self.deadline_observer(remaining)
        if remaining is not None and remaining <= 0.0:
            # Spent budget: the client already gave up, so shed before
            # any enclave entry-cost is paid for this request.  Safe for
            # anonymity at either role: at the UA this is pre-shuffle,
            # and at the IA it is the *request* path — the batch the IA
            # randomizes is responses, which this request never joins:
            # the reject goes straight back to the UA, bypassing
            # ``response_buffer``, so no batch is thinned by it.
            self._count_shed(STAGE_DEADLINE, "expired")
            reply(uniform_reject(request.request_id))
            return
        if self.admission is not None:
            refusal = self.admission.admit(self.overload_signal())
            if refusal is not None:
                self._count_shed(STAGE_ADMISSION, refusal)
                reply(uniform_reject(request.request_id))
                return
        self.ingress.push((request, reply, self.runtime.loop.now, remaining))
        self._pump()

    def _strip_tags(self, request: Request) -> Request:
        """Remove the fields that ride the inbound hop only (UA)."""
        return request

    def _enter(self, entry: tuple) -> None:
        """Hand an admitted entry to the shuffle buffer, or straight to
        the node where this stage does not randomize requests."""
        buffer = self.request_buffer
        if buffer is not None:
            buffer.add(entry)
        else:
            self._start_request(entry)

    def _pump(self) -> None:
        """Drain admitted entries into the shuffle buffer / node while
        the in-flight window has room.  Sheds decided at dequeue time
        (CoDel sojourn) happen here — still pre-shuffle."""
        if self.ingress is None:
            return
        buffer = self.request_buffer
        while True:
            buffered = buffer.pending if buffer is not None else 0
            if self.node.pending + buffered >= self._pump_window:
                return
            entry = self.ingress.pop()
            if entry is None:
                return
            self._enter(entry)

    def _start_request(self, entry: tuple, collector: Optional[_BatchCollector] = None) -> None:
        """Charge the request leg to the node, then :meth:`_forward`.

        Also the per-entry release hook of a request shuffle buffer.
        """
        service_time = self._request_leg(
            self.runtime.costs, self.runtime.config, len(self.routing),
            self.enclave.performance_penalty,
        )
        self._submit(
            service_time, self._forward, entry, collector,
            stale=collector.skip if collector is not None else None,
        )

    def _forward(self, entry: tuple, collector: Optional[_BatchCollector] = None) -> None:
        """The transform step, with two sinks: send the rewritten
        request upstream now, or hand it to *collector* (batch-envelope
        mode), which seals the whole flush into one envelope."""
        request, reply, arrived, remaining = entry
        try:
            transformed, context = self._transform_request(request)
        except Exception as exc:
            # Stale client material vs. rotated layer keys (breach
            # response mid-flight): reject retryably, never crash.
            self.transform_errors += 1
            reply(transform_error_response(request, exc))
            if collector is not None:
                collector.skip()
            self._pump()
            return
        upstream = None
        if collector is None:
            try:
                upstream = self._pick_backend(request)
            except BalancerError:
                # Every upstream is ejected (NoUpstream): nowhere to
                # route, so reject retryably before registering any
                # routing state.  At the UA this request already
                # traversed the shuffle batch, so it is not a load shed
                # — but the reject is still the uniform message,
                # indistinguishable from one.
                self.no_upstream += 1
                self._count_shed(STAGE_UPSTREAM, "no_upstream")
                reply(uniform_reject(request.request_id))
                self._pump()
                return
        if remaining is not None:
            # Charge this hop's queueing + service time to the budget
            # and restamp (the hardened-mode transform rebuilds the
            # request from sealed inner fields, dropping the top-level
            # budget).  Never shed here: the request already traversed
            # the shuffle, and post-shuffle drops would thin the batch
            # below S.
            if arrived is not None:
                remaining = charge(remaining, self.runtime.loop.now - arrived)
            transformed = stamp_deadline(transformed, remaining)
        self.routing.register(request.request_id, (reply, context))
        self.requests_processed += 1
        self.enclave.ocall()
        telemetry = self.runtime.telemetry
        if telemetry is not None:
            telemetry.tracer.record_hop(
                request.request_id, self._role, self._upstream_role
            )
        if collector is None:
            self._send(upstream, transformed)
        else:
            collector.add(transformed)
        self._pump()

    def _reply_from(self, upstream: Any) -> ReplyFn:
        """The callback *upstream* answers through: its response crosses
        the wire back to this instance's response path."""
        network, codec = self.runtime.network, self.runtime.codec
        telemetry = self.runtime.telemetry

        def reply_from_upstream(response: Response) -> None:
            if telemetry is not None:
                # Same virtual instant as the wire record below.
                telemetry.tracer.record_hop(
                    response.request_id, self._upstream_role, self._role
                )
            ship(network, codec, upstream.address, self.address, response,
                 self._receive_response)

        return reply_from_upstream

    # -- response path: [shuffle] -> transform -> return ---------------

    def _receive_response(self, response: Response) -> None:
        if not self.alive:
            return
        buffer = self.response_buffer
        if buffer is not None:
            buffer.add(response)
        else:
            self._start_response(response)

    def _claim_route(self, response: Response) -> Optional[tuple]:
        """Consume the routing entry *response* answers, if it survived."""
        if response.request_id not in self.routing:
            # The route predates a crash/restart; the client's retry
            # already travels under a fresh id.
            self.stale_responses += 1
            self._pump()
            return None
        return self.routing.consume(response.request_id)

    # -- key material and the dual-epoch trial -------------------------

    def _keys_for(self, tenant: str) -> LayerKeys:
        """Resolve key material; single-tenant deployments ignore
        *tenant* (multi-tenant subclasses dispatch on it, §6.3)."""
        return _layer_keys(self.enclave, *self._key_slots)

    def _note_previous_use(self) -> None:
        self.previous_epoch_decrypts += 1
        self.last_previous_epoch_use = self.runtime.loop.now

    def _trial(self, active: LayerKeys, attempt: Callable[[LayerKeys], Any],
               validate: Optional[Callable[[LayerKeys], Any]] = None) -> Any:
        """Run *attempt* under the right epoch's private key.

        Outside a rotation window this is exactly the single-key call
        (zero extra ecalls — the window check is host-side).  During a
        window, *attempt* is trialled under the active then the
        previous private key; each candidate carries the active
        symmetric key either way, so nothing downstream of this enclave
        ever sees an old-epoch identifier again.  Providers without
        authenticated decryption return garbage (not an exception)
        under the wrong key, so a candidate must first pass *validate*
        where the message has structure to check.
        """
        window = epoch_window_of(self.enclave)
        if window is None:
            return attempt(active)
        last_error: Optional[Exception] = None
        for candidate, is_previous in window_candidates(self.enclave, active, window):
            try:
                if validate is not None:
                    validate(candidate)
                result = attempt(candidate)
            except Exception as exc:
                last_error = exc
                continue
            if is_previous:
                self._note_previous_use()
            return result
        raise last_error  # type: ignore[misc]  # loop ran at least once

    def _transform_request(self, request: Request) -> Tuple[Request, Any]:
        """This role's request rewrite, dual-epoch aware (:meth:`_trial`).

        The validator is the fixed-size identifier encoding of the
        field :meth:`_probe_field` names.
        """
        if not self.runtime.config.encryption:
            return self._rewrite_request(None, request)
        active = self._keys_for(protocol.tenant_of(request))
        probe = self._probe_field(request)

        def validate(candidate: LayerKeys) -> None:
            blob = self.runtime.codec.blob_value(request.fields[probe])
            decode_identifier(self.runtime.provider.asym_decrypt(candidate, blob))

        return self._trial(
            active,
            lambda keys: self._rewrite_request(keys, request),
            validate if probe is not None else None,
        )


@dataclass
class UserAnonymizer(_ProxyStage):
    """One UA-layer proxy instance (first layer, client-facing)."""

    ia_balancer: LoadBalancer
    request_buffer: Optional[ShuffleBuffer] = None
    #: Epoch tags stripped at the front door (pre-shuffle, so batches
    #: never carry an epoch marker an adversary could partition by).
    epoch_tags_seen: int = 0
    #: Causal trace ids severed at the front door (pre-shuffle, so no
    #: trace can be followed through the batch — the linkage channel a
    #: conventional tracer would open is closed here by construction).
    trace_tags_seen: int = 0
    #: Front-door admission controller (overload mode only).
    admission: Optional[AdmissionController] = None
    #: Shuffle batches sealed into a single hybrid envelope
    #: (batch-envelope mode only).
    batch_envelopes_sealed: int = 0

    _role = "ua"
    _upstream_role = "ia"
    _request_leg = staticmethod(ProxyCostModel.ua_request_leg)
    _key_slots = (UA_SECRET_SK, UA_SECRET_K)
    _shuffles_requests = True

    def __post_init__(self) -> None:
        super().__post_init__()
        runtime = self.runtime
        if runtime.overload is not None and self.admission is None:
            self.admission = runtime.overload.make_admission()
        if (
            runtime.codec.batch_envelopes
            and runtime.config.encryption
            and self.request_buffer is not None
            # Runtimes without a shared IA key (multi-tenant stacks
            # hold per-tenant keys instead) fall back to per-request
            # sends; a batch envelope needs one sealing key.
            and runtime.ia_public is not None
        ):
            # Batch-envelope mode: a flush becomes one sealed envelope
            # to one IA instance instead of S independent sends.
            self.request_buffer.release_batch = self._release_batch

    def _strip_tags(self, request: Request) -> Request:
        # Sever the epoch tag and the causal trace before the request
        # can enter the shuffle buffer, unconditionally: whatever a
        # batch holds is tag-free, so its composition can never be
        # partitioned by epoch (the tag is only a hint anyway —
        # decryption trials run active-epoch-first regardless), and
        # downstream of this line the request is indistinguishable from
        # its batch peers; post-shuffle attribution happens only at
        # batch granularity through aggregate fan-in counts.
        request, severed = strip(request, EPOCH, TRACE)
        if EPOCH.name in severed:
            self.epoch_tags_seen += 1
        if TRACE.name in severed:
            self.trace_tags_seen += 1
            if self.runtime.causal is not None:
                self.runtime.causal.absorb(self.name)
        return request

    def _pick_backend(self, request: Request):
        """The IA instance the rewritten request goes to."""
        return self.ia_balancer.pick()

    def _rewrite_request(self, keys: Optional[LayerKeys], request: Request):
        return protocol.ua_transform_request(
            self.runtime.provider, keys, self.runtime.config, request,
            self.address, codec=self.runtime.codec,
        )

    def _probe_field(self, request: Request) -> Optional[str]:
        # Hardened mode self-validates via its JSON envelope inside the
        # transform; otherwise the encrypted user id is the validator.
        return None if self.runtime.config.harden_client_hop else "user"

    def _send(self, ia: Any, transformed: Request) -> None:
        reply_from_ia = self._reply_from(ia)
        ship(self.runtime.network, self.runtime.codec, self.address, ia.address,
             transformed, lambda req: ia.receive_request(req, reply_from_ia))

    # -- batch-envelope request path -----------------------------------

    def _release_batch(self, batch: list) -> None:
        """Shuffle-flush hook in batch-envelope mode.

        The flushed batch is transformed per request on this node
        (same enclave legs as the per-request path), collected, then
        sealed into ONE hybrid envelope and sent to one IA instance —
        amortizing the asymmetric operation across the whole batch.
        """
        collector = _BatchCollector(expected=len(batch), seal=self._seal_and_send)
        for entry, _ in batch:
            self._start_request(entry, collector)

    def _seal_and_send(self, requests: list) -> None:
        """Seal transformed *requests* into one envelope, route to one IA."""
        codec = self.runtime.codec
        try:
            ia = self.ia_balancer.pick()
        except BalancerError:
            self.no_upstream += len(requests)
            for request in requests:
                if request.request_id in self.routing:
                    reply, _ = self.routing.consume(request.request_id)
                    self._count_shed(STAGE_UPSTREAM, "no_upstream")
                    reply(uniform_reject(request.request_id))
            return
        frames = [codec.encode_request(request) for request in requests]
        sealer = EnvelopeCodec(self.runtime.provider)
        blob = sealer.seal_batch(self.runtime.ia_public(), frames)
        envelope = BatchEnvelope(
            blob=blob,
            request_ids=[request.request_id for request in requests],
            verbs=[request.verb for request in requests],
            source=self.address,
        )
        self.batch_envelopes_sealed += 1
        reply_from_ia = self._reply_from(ia)
        self.runtime.network.send(
            self.address,
            ia.address,
            envelope,
            envelope.size_bytes(),
            lambda env: ia.receive_batch(env, reply_from_ia),
        )

    # -- response path -------------------------------------------------

    def _start_response(self, response: Response) -> None:
        service_time = self.runtime.costs.ua_response_leg(
            self.runtime.config, len(self.routing), self.enclave.performance_penalty
        )
        self._submit(service_time, self._return_to_client, response)

    def _return_to_client(self, response: Response) -> None:
        route = self._claim_route(response)
        if route is None:
            return
        reply, response_key = route
        if not response.ok:
            # Whatever failed upstream (brownout text, guard shed,
            # transform error), the client-facing wire carries only the
            # canonical reject: cause strings correlate with IA/LRS
            # state that must stay behind the redaction boundary.
            self.rejects_normalized += 1
            response = uniform_reject(response.request_id)
        wrapped = protocol.ua_wrap_response(
            self.runtime.provider,
            self.runtime.config,
            response_key,
            response,
            codec=self.runtime.codec,
        )
        self.responses_processed += 1
        self.enclave.ocall()
        reply(wrapped)
        self._pump()


@dataclass
class ItemAnonymizer(_ProxyStage):
    """One IA-layer proxy instance (second layer, LRS-facing)."""

    #: Callable returning the LRS backend for the next request.
    lrs_picker: Callable[[], object]
    response_buffer: Optional[ShuffleBuffer] = None
    #: Sealed batch envelopes opened (batch-envelope mode only).
    batch_envelopes_opened: int = 0

    _role = "ia"
    _upstream_role = "lrs"
    _request_leg = staticmethod(ProxyCostModel.ia_request_leg)
    _key_slots = (IA_SECRET_SK, IA_SECRET_K)
    _shuffles_requests = False

    def receive_batch(self, envelope: BatchEnvelope, reply: ReplyFn) -> None:
        """Entry point for a UA-sealed shuffle batch (batch-envelope
        mode): open the single hybrid envelope, decode the frames, and
        feed each inner request through the normal request path."""
        if not self.alive:
            return
        try:
            requests = self._open_envelope(envelope)
        except Exception as exc:
            del exc
            # The whole batch is undecryptable (e.g. sealed under keys
            # this enclave no longer holds): every inner request gets
            # the same uniform retryable reject.
            self.transform_errors += 1
            for request_id in envelope.request_ids:
                reply(uniform_reject(request_id))
            return
        self.batch_envelopes_opened += 1
        for request in requests:
            self.receive_request(request, reply)

    def _open_envelope(self, envelope: BatchEnvelope) -> list:
        """Decrypt and decode a batch envelope, dual-epoch aware.

        A wrong-epoch private key yields garbage plaintext (providers
        decrypt silently); the frame length-prefix structure acts as
        the validator, exactly like the fixed-size identifier encoding
        does on the per-request path.
        """
        codec = self.runtime.codec
        opener = EnvelopeCodec(self.runtime.provider)
        frames = self._trial(
            self._keys_for(protocol.DEFAULT_TENANT),
            lambda keys: opener.open_batch(keys, envelope.blob),
        )
        if len(frames) != len(envelope.request_ids):
            raise ValueError(
                f"batch envelope frame count {len(frames)} != "
                f"{len(envelope.request_ids)} announced requests"
            )
        return [
            codec.decode_request(
                frame,
                verb=verb,
                request_id=request_id,
                client_address=envelope.source,
            )
            for frame, request_id, verb in zip(
                frames, envelope.request_ids, envelope.verbs
            )
        ]

    def _pick_backend(self, request: Request):
        """Choose the LRS backend; multi-tenant subclasses route by
        the request's tenant."""
        return self.lrs_picker()

    def _rewrite_request(self, keys: Optional[LayerKeys], request: Request):
        return protocol.ia_transform_request(
            self.runtime.provider, keys, self.runtime.config, request,
            self.address, codec=self.runtime.codec,
        )

    def _probe_field(self, request: Request) -> Optional[str]:
        # POSTs are validated through the fixed-size identifier encoding
        # before committing to a candidate key.  GET temporary keys are
        # 32 opaque bytes with no structure to validate, so under a
        # provider whose wrong-key decryption returns garbage silently
        # the active-epoch trial always "wins"; a stale-epoch GET then
        # yields an undecodable blob and heals through the client's
        # decode-failure retry, re-encoded under the current epoch.
        return "item" if request.verb == Verb.POST else None

    def _send(self, backend: Any, transformed: Request) -> None:
        network = self.runtime.network
        # The IA is the only component that knows, by construction, that
        # this peer is an LRS backend: register it in the operator-side
        # role directory on first contact.
        if backend.address not in network.roles:
            network.register_role(backend.address, "lrs")
        reply_from_lrs = self._reply_from(backend)
        ship(network, self.runtime.codec, self.address, backend.address, transformed,
             lambda req: backend.handle(req, reply_from_lrs))

    # -- response path -------------------------------------------------

    def _start_response(self, response: Response) -> None:
        """Charge the response leg to the node; also the release hook
        of the response shuffle buffer."""
        service_time = self.runtime.costs.ia_response_leg(
            self.runtime.config,
            len(self.routing),
            len(response.fields.get("items", [])),
            self.enclave.performance_penalty,
        )
        self._submit(service_time, self._return_to_ua, response)

    def _return_to_ua(self, response: Response) -> None:
        route = self._claim_route(response)
        if route is None:
            return
        reply, context = route
        try:
            keys = (
                self._keys_for(context.tenant) if self.runtime.config.encryption else None
            )
            previous = self._previous_keys() if keys is not None else None
            transformed = protocol.ia_transform_response(
                self.runtime.provider,
                keys,
                self.runtime.config,
                context,
                response,
                previous=previous,
                on_previous_use=self._note_previous_use,
                codec=self.runtime.codec,
            )
        except Exception as exc:
            del exc
            self.transform_errors += 1
            reply(uniform_reject(response.request_id))
            self._pump()
            return
        if not transformed.ok:
            # ia_transform_response passes failures through untouched;
            # rewrite them here so brownout/guard/backend error text
            # never crosses the ia->ua hop — a shed must look exactly
            # like any other failure from the UA's side.
            self.rejects_normalized += 1
            transformed = uniform_reject(transformed.request_id)
        self.responses_processed += 1
        self.enclave.ocall()
        reply(transformed)
        self._pump()

    def _previous_keys(self) -> Optional[LayerKeys]:
        """Previous-epoch key material while a window is open (the
        presence check is host-side; reading the slots is an ecall)."""
        window = epoch_window_of(self.enclave)
        if window is None:
            return None
        return _layer_keys(self.enclave, *window.secret_slots())
