"""Epoch-based live key rotation (online re-key without downtime).

The breach response of footnote 1 — rotate a layer's keys and
re-encrypt the LRS (:class:`repro.proxy.rekey.OnlineRekeyer`) — could
run as one stop-the-world pass.  A production RaaS fleet cannot stop:
this module rotates keys while traffic flows, without
ever aborting a request and without ever letting the effective
anonymity set drop below ``S*I`` mid-rotation.

The drill, in order:

1. **announce** — the coordinator generates the layer's next key
   generation (its epoch) and flips it active in every alive enclave of the rotating layer.
   The base sealed slots always hold the *active* keys, so all forward
   pseudonymization switches to the new epoch at the announce instant;
   the outgoing generation stays sealed under suffixed slots
   (``skUA@e0``) described by an :class:`EpochWindow`.
2. **dual-epoch window** — the layers trial-decrypt inbound traffic
   under the active key first, then the previous one, and *always*
   re-encrypt forward under the active epoch.  In-flight requests
   sealed by clients against the old public key keep completing.
3. **client discovery** — the user-side library re-reads the service's
   key material (and bumps its epoch counter) on every retryable
   error and on cache expiry, so stale clients converge without a
   control channel (extending the re-encode-on-retry path).
4. **re-encryption** — an :class:`~repro.proxy.rekey.OnlineRekeyer`
   translates the pre-announce LRS prefix in resumable batches; rows
   inserted after the announce are new-epoch by construction (the
   layers always encrypt forward under the active key), so the prefix
   is a fixed, shrinking target and the cut-over barrier is simply
   ``rekeyer.done``.
5. **retire** — once the re-encrypted store has been cut over and no
   shuffle batch has used the previous epoch for ``retire_grace``
   seconds (longer than the shuffle timeout, so every batch buffered
   under the old epoch has flushed), the old keys are wiped from all
   enclaves.

Privacy invariants, enforced structurally:

* the epoch id travels the wire only as a fixed-width tag on the
  client->UA hop and is stripped by the UA **before** the request
  enters a shuffle buffer — shuffle batches are provably tag-free, so
  an adversary cannot partition a batch by epoch;
* rotation **pauses — never aborts requests** — whenever proceeding
  could thin the anonymity set: a crashed rotating instance, a shuffle
  flush below the min-fill floor, or an overload signal all hold the
  drill where it stands until the condition clears.

:class:`EpochWindow` and the sealed-slot helpers are defined in
:mod:`repro.sgx.provisioning` (the proxy package depends on sgx, not
the other way around) and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.crypto.keys import KeyFactory, LayerKeys
from repro.rest.header import EPOCH, stamp
from repro.rest.messages import Request
from repro.sgx.enclave import Enclave
from repro.sgx.provisioning import EPOCH_WINDOW_SLOT, EpochWindow, epoch_slot
from repro.simnet.clock import EventLoop, Periodic

__all__ = [
    "EPOCH_FIELD",
    "EPOCH_WIDTH",
    "MAX_EPOCH",
    "encode_epoch",
    "stamp_epoch",
    "EpochWindow",
    "epoch_slot",
    "EPOCH_WINDOW_SLOT",
    "epoch_window_of",
    "window_candidates",
    "OVERLOAD_HOLD_SOJOURN",
    "hold_reason",
    "HoldTheLine",
    "ROTATION_STATES",
    "RotationCoordinator",
]

#: Field name the epoch id travels under (top level, never sealed —
#: the UA must strip it before the enclave transition, exactly like
#: the deadline budget).
EPOCH_FIELD = EPOCH.name

#: Every encoded epoch id is exactly this many characters, so the tag
#: preserves the §4.3 constant-size property among epoch-aware clients.
EPOCH_WIDTH = EPOCH.width

#: Largest encodable epoch id; larger values are clamped.
MAX_EPOCH = 9999


def encode_epoch(epoch_id: int) -> str:
    """Fixed-width encoding of an epoch id (``0003``)."""
    clamped = min(max(int(epoch_id), 0), MAX_EPOCH)
    return format(clamped, f"0{EPOCH_WIDTH}d")


def stamp_epoch(request: Request, epoch_id: Optional[int]) -> Request:
    """Copy of *request* tagged with *epoch_id* (unchanged for None)."""
    if epoch_id is None:
        return request
    return stamp(request, EPOCH, encode_epoch(epoch_id))


def epoch_window_of(enclave: Enclave) -> Optional[EpochWindow]:
    """The dual-epoch window sealed into *enclave*, if one is open.

    The presence check is host-side (the slot name is not a secret),
    so deployments that never rotate pay zero extra ecalls; reading
    the descriptor itself is an ecall like any sealed access.
    """
    if not enclave.sealed.contains(EPOCH_WINDOW_SLOT):
        return None
    return enclave.secret(EPOCH_WINDOW_SLOT)


def window_candidates(
    enclave: Enclave, active: LayerKeys, window: EpochWindow
) -> Iterator[Tuple[LayerKeys, bool]]:
    """Trial-decryption candidates, active epoch first.

    Each candidate pairs a decryption private key with the **active**
    symmetric key: whichever epoch a message was sealed under, the
    layer always pseudonymizes forward under the new one — old-epoch
    pseudonyms never re-enter the system after the announce.
    """
    yield active, False
    prev_sk_slot, _ = window.secret_slots()
    yield (
        LayerKeys(
            private_key=enclave.secret(prev_sk_slot),
            symmetric_key=active.symmetric_key,
        ),
        True,
    )


#: A reconfiguration yields to overload: it holds while any involved
#: instance's ingress sojourn exceeds this (seconds).
OVERLOAD_HOLD_SOJOURN = 0.25


def hold_reason(instances: Iterable[Any], floor: int) -> Optional[str]:
    """Why a reconfiguration touching *instances* must hold where it
    stands, or ``None`` when it may advance.

    The pause-never-abort discipline of every control-plane operation
    (key rotation, shard split / merge): *floor* is the anonymity floor
    per shuffle flush, the configured shuffle size S.
    """
    instances = list(instances)
    if any(not instance.alive for instance in instances):
        # The involved set is degraded; advancing (and eventually
        # wiping old keys or retiring a shard) while an instance is
        # down risks both availability and the anonymity floor once it
        # returns.  Wait for the supervisor/monitor to recover it.
        return "instance_down"
    if floor > 1:
        for instance in instances:
            buffer = instance.shuffle_buffer
            if buffer is None:
                continue
            last = buffer.last_flush_size
            if last is not None and last < floor:
                # A flush (or crash-drain) below S: proceeding would
                # certify a reconfiguration over a thinned batch.
                return "anonymity_floor"
    for instance in instances:
        # Read the raw signal rather than consulting the admission
        # controller: admit() mutates shed counters.
        if instance.overload_signal().queue_sojourn > OVERLOAD_HOLD_SOJOURN:
            return "overload"
    return None


@dataclass(kw_only=True)
class HoldTheLine:
    """Pause bookkeeping of a ticking control-plane operation.

    Subclasses compute :func:`hold_reason` over the instances *they*
    involve each tick and hand it to :meth:`_hold` with their own two
    operator events; nothing is rolled back and no request is aborted
    while the hold lasts.
    """

    paused: bool = False
    pause_reason: Optional[str] = None
    pauses: int = 0
    pause_reasons: Dict[str, int] = field(default_factory=dict)

    def _hold(
        self, reason: Optional[str], paused: Dict[str, Any], resumed: Dict[str, Any]
    ) -> bool:
        """Book this tick's verdict, emitting *paused* / *resumed* once
        per edge; True when the operation may advance."""
        if reason is None:
            if self.paused:
                self.paused = False
                self.pause_reason = None
                self._emit(resumed)
            return True
        if not self.paused:
            self.paused = True
            self.pauses += 1
            self.pause_reasons[reason] = self.pause_reasons.get(reason, 0) + 1
            self._emit(paused)
        self.pause_reason = reason
        return False


#: Rotation drill states, in drill order.  ``paused`` is orthogonal
#: (the drill resumes where it stood); :attr:`RotationCoordinator.
#: state_code` reports the paused index while the pause lasts so the
#: ``pprox_rotation_state`` gauge shows the stall.
ROTATION_STATES = ("idle", "announced", "reencrypting", "draining", "retired", "paused")


@dataclass
class RotationCoordinator(HoldTheLine, Periodic):
    """Drives one layer's live rotation drill tick by tick.

    The coordinator is deliberately stateless about in-flight traffic:
    it reads the same signals an operator would (instance liveness,
    shuffle flush sizes, ingress sojourn) and only ever does three
    things — re-provision a stale enclave, run one re-encryption
    batch, or wait.  Crashes of the rotating instance, partitions that
    swallow an announcement, and overload all reduce to "pause until
    the coverage/floor checks pass again", which is what makes the
    drill restart-safe.

    :meth:`announce` opens the drill (a plan's ``rotate`` verb calls
    it); the ticks stop on their own at retirement.  :meth:`stop`
    halts the drill where it stands, for post-mortems: an open
    dual-epoch window stays open and traffic keeps being served under
    whatever epochs are live.
    """

    loop: EventLoop
    #: The deployed :class:`~repro.proxy.service.PProxService` (duck-
    #: typed to keep this module import-light).
    service: Any
    layer: str
    #: The LRS :class:`~repro.lrs.store.EventStore` to re-encrypt.
    store: Any
    provider: Any
    factory: KeyFactory
    #: Cut-over barrier: called once, when the background re-encryption
    #: completes (e.g. retrain the recommender over the rekeyed store).
    on_cutover: Optional[Callable[[], None]] = None
    batch_size: int = 64
    tick_interval: float = 0.1
    #: Seconds without any previous-epoch decrypt before retirement;
    #: keep this above the shuffle timeout so every batch buffered
    #: under the old epoch has flushed and been answered.
    retire_grace: float = 0.5
    telemetry: Any = None

    state: str = "idle"
    ticks: int = 0
    #: Alive enclaves found holding a stale key generation and healed
    #: by an idempotent re-announce (partition / missed-announce path).
    reprovisions: int = 0
    old_epoch: Optional[int] = None
    new_epoch: Optional[int] = None
    window_opened_at: Optional[float] = None
    window_closed_at: Optional[float] = None
    rekeyer: Any = None

    # -- lifecycle ------------------------------------------------------

    @property
    def state_code(self) -> int:
        """Index into :data:`ROTATION_STATES` (gauge-friendly)."""
        if self.paused:
            return ROTATION_STATES.index("paused")
        return ROTATION_STATES.index(self.state)

    @property
    def completed(self) -> bool:
        """True once the old epoch has been retired."""
        return self.state == "retired"

    @property
    def progress_ratio(self) -> float:
        """Fraction of the pre-announce LRS prefix re-encrypted."""
        if self.rekeyer is None:
            return 0.0 if self.state == "idle" else 1.0
        return self.rekeyer.progress_ratio

    @property
    def dual_window_seconds(self) -> float:
        """How long the dual-epoch acceptance window has been open."""
        if self.window_opened_at is None:
            return 0.0
        closed = (
            self.window_closed_at
            if self.window_closed_at is not None
            else self.loop.now
        )
        return closed - self.window_opened_at

    # -- drill ----------------------------------------------------------

    def _instances(self) -> list:
        return list(self.service.layer_instances(self.layer))

    def announce(self) -> None:
        """Open the drill: the next epoch goes active in every alive
        enclave of the layer, then the drill ticks until it retires the
        previous one.  A stopped coordinator ignores it; a second
        announce raises."""
        if self._running is False:
            return
        if self.state != "idle":
            raise RuntimeError("rotation drill already started")
        new_keys = self.factory.layer_keys()
        self.old_epoch, self.new_epoch = self.service.announce_epoch(
            self.layer, new_keys
        )
        self.window_opened_at = self.loop.now
        # Local import: repro.proxy.rekey -> crypto/lrs only, but kept
        # out of module scope so importing epochs never forces the
        # re-encryption machinery into memory for tag-only users.
        from repro.proxy.rekey import OnlineRekeyer

        held = self.service.provisioner.previous_keys[self.layer]
        self.rekeyer = OnlineRekeyer(
            store=self.store,
            provider=self.provider,
            old_keys=held[1],
            new_keys=self.service.provisioner.layer_keys[self.layer],
            layer=self.layer,
        )
        self.state = "announced"
        self._emit(
            {
                "event": "epoch_announced",
                "layer": self.layer,
                "old_epoch": self.old_epoch,
                "new_epoch": self.new_epoch,
                "fingerprint": new_keys.fingerprint,
                "rekey_target": self.rekeyer.target,
            }
        )
        self.start()

    def _period(self) -> float:
        return self.tick_interval

    def _step(self) -> None:
        self.ticks += 1
        self._ensure_coverage()
        # Any rotating-layer instance down, flushing below S or
        # overloaded holds the drill where it stands.
        reason = hold_reason(self._instances(), self.service.config.shuffle_size)
        if self._hold(
            reason,
            {"event": "rotation_paused", "layer": self.layer, "reason": reason},
            {"event": "rotation_resumed", "layer": self.layer},
        ):
            self._advance()
        if self.state == "retired":
            self.stop()

    def _ensure_coverage(self) -> None:
        """Idempotent re-announce: heal any alive enclave that missed
        the epoch flip (restarted from an old image, or partitioned
        away during the announcement)."""
        provisioner = self.service.provisioner
        for instance in self._instances():
            if not instance.alive:
                continue
            if provisioner.verify_generation(instance.enclave):
                continue
            provisioner.reprovision(self.layer, instance.enclave)
            self.reprovisions += 1
            self._emit(
                {
                    "event": "epoch_reannounced",
                    "layer": self.layer,
                    "instance": instance.name,
                }
            )

    def _advance(self) -> None:
        if self.state == "announced":
            self.state = "reencrypting"
            return
        if self.state == "reencrypting":
            self.rekeyer.run_batch(self.batch_size)
            if self.rekeyer.done:
                if self.on_cutover is not None:
                    self.on_cutover()
                self.state = "draining"
                self._emit(
                    {
                        "event": "rekey_cutover",
                        "layer": self.layer,
                        "events_processed": self.rekeyer.cursor,
                        "batches": self.rekeyer.batches_run,
                    }
                )
            return
        if self.state == "draining" and self._drained():
            retired = self.service.retire_epoch(self.layer)
            self.window_closed_at = self.loop.now
            self.state = "retired"
            self._emit(
                {
                    "event": "epoch_retired",
                    "layer": self.layer,
                    "epoch": retired,
                    "window_seconds": self.dual_window_seconds,
                    "reprovisions": self.reprovisions,
                    "pauses": self.pauses,
                }
            )

    def _drained(self) -> bool:
        """No shuffle batch still holds old-epoch work: nothing has
        needed the previous keys for *retire_grace* seconds."""
        last_use = self.window_opened_at if self.window_opened_at is not None else 0.0
        for instance in self._instances():
            used_at = instance.last_previous_epoch_use
            if used_at is not None:
                last_use = max(last_use, used_at)
        return self.loop.now - last_use >= self.retire_grace

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self.telemetry is not None:
            self.telemetry.event_log.emit("rotation", "operator", payload)
