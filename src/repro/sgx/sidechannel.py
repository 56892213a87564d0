"""Side-channel attacks on enclaves, and their detection.

The PProx adversary model (§2.3) allows the adversary to "compromise
and break into a single enclave at a time, on any server".  The
justification is quantitative: published SGX side-channel attacks
complete in tens of minutes while degrading the victim enclave's
performance significantly, and detection mechanisms (Cloak, Déjà Vu,
Varys) respond before a *second* enclave can be broken.

This module turns those assumptions into mechanism:

* :class:`SideChannelAttack` — a timed attack against one enclave.
  While it runs the enclave suffers a performance penalty; when the
  configured duration elapses, the enclave is compromised and its
  sealed secrets leak to the attacker.
* :class:`BreachDetector` — a Varys-like monitor sampling enclave
  performance; sustained degradation above a threshold triggers the
  registered response (e.g. key rotation) after a detection lag.
* :class:`SingleEnclaveInvariant` — enforces (and lets tests assert)
  the model's core constraint: the adversary never holds live secrets
  from *both* layers simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.simnet.clock import EventLoop
from repro.sgx.enclave import Enclave

__all__ = [
    "SideChannelAttack",
    "BreachDetector",
    "SingleEnclaveInvariant",
    "AttackModelError",
]

# Reported attack completion times are "in the tens of minutes" (§1);
# default to 30 virtual minutes.
DEFAULT_ATTACK_DURATION = 30 * 60.0

# Attacked enclaves slow down noticeably; Nilsson et al. report
# significant degradation — we default to 3x service times.
DEFAULT_PERFORMANCE_PENALTY = 3.0

# A sampled penalty above this counts towards a breach detection.
DETECTION_THRESHOLD = 1.5


class AttackModelError(RuntimeError):
    """Raised when a scenario violates the adversary model."""


@dataclass
class SideChannelAttack:
    """One cache/timing attack campaign against a single enclave."""

    loop: EventLoop
    target: Enclave
    duration: float = DEFAULT_ATTACK_DURATION
    performance_penalty: float = DEFAULT_PERFORMANCE_PENALTY
    on_success: Optional[Callable[[Dict[str, Any]], None]] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    aborted: bool = False

    def launch(self) -> None:
        """Start the attack: degrade the target, schedule completion."""
        if self.started_at is not None:
            raise AttackModelError("attack already launched")
        self.started_at = self.loop.now
        self.target.performance_penalty = self.performance_penalty
        self.loop.schedule(self.duration, self._complete)

    def abort(self) -> None:
        """Stop the attack (e.g. the detector's response fired first)."""
        self.aborted = True
        self.target.performance_penalty = 1.0

    def _complete(self) -> None:
        if self.aborted:
            return
        self.completed_at = self.loop.now
        self.target.mark_compromised()
        self.target.performance_penalty = 1.0
        if self.on_success is not None:
            self.on_success(self.target.leak_secrets())


@dataclass
class BreachDetector:
    """Performance-anomaly detector in the style of Varys / Déjà Vu.

    Samples each monitored enclave's ``performance_penalty`` every
    ``sampling_interval``; when a penalty above
    :data:`DETECTION_THRESHOLD` persists
    for ``confirmation_samples`` consecutive samples, the registered
    ``response`` callback fires (once per enclave per breach).
    """

    loop: EventLoop
    enclaves: List[Enclave]
    response: Callable[[Enclave], None]
    sampling_interval: float = 30.0
    confirmation_samples: int = 4
    detections: List[str] = field(default_factory=list)
    _suspicion: Dict[str, int] = field(default_factory=dict)
    _alerted: Set[str] = field(default_factory=set)
    _running: bool = False

    def start(self) -> None:
        """Begin periodic sampling."""
        if self._running:
            return
        self._running = True
        self.loop.schedule(self.sampling_interval, self._sample)

    def stop(self) -> None:
        """Stop sampling (the next tick becomes a no-op)."""
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        for enclave in self.enclaves:
            if enclave.name in self._alerted:
                continue
            if enclave.performance_penalty > DETECTION_THRESHOLD or enclave.compromised:
                count = self._suspicion.get(enclave.name, 0) + 1
                self._suspicion[enclave.name] = count
                if count >= self.confirmation_samples:
                    self._alerted.add(enclave.name)
                    self.detections.append(enclave.name)
                    self.response(enclave)
            else:
                self._suspicion[enclave.name] = 0
        self.loop.schedule(self.sampling_interval, self._sample)

@dataclass
class SingleEnclaveInvariant:
    """Checks the "one enclave at a time" adversary constraint.

    Tracks which layer each compromised enclave belongs to.  The model
    (and hence the security argument of §6.1) requires that the
    adversary never possesses *live* secrets from both the UA and the
    IA layer at once; a key rotation retires leaked secrets.
    """

    #: layer name -> True while the adversary holds live secrets of it
    holdings: Dict[str, bool] = field(default_factory=lambda: {"UA": False, "IA": False})
    violations: int = 0

    def record_leak(self, layer: str) -> None:
        """Adversary obtained the secrets of *layer*."""
        if layer not in self.holdings:
            raise AttackModelError(f"unknown layer {layer!r}")
        other = "IA" if layer == "UA" else "UA"
        if self.holdings[other]:
            # Both layers simultaneously: outside the adversary model.
            self.violations += 1
            raise AttackModelError(
                "adversary model violated: secrets of both layers held live"
            )
        self.holdings[layer] = True

    def record_rotation(self, layer: str) -> None:
        """Key rotation retired the leaked secrets of *layer*."""
        self.holdings[layer] = False

