"""Fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a deterministic schedule of :class:`FaultEvent`
entries in *virtual* time.  Plans can be written literally in a
scenario config, or sampled from a :class:`ChaosSpec` through a named
:class:`~repro.simnet.rng.RngRegistry` stream — the same seed always
yields the same plan, which is what makes two chaos runs with one seed
byte-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.simnet.rng import RngRegistry

__all__ = ["FaultEvent", "FaultPlan", "ChaosSpec", "FAULT_KINDS"]

#: Fault kinds the supervisor knows how to inject.
FAULT_KINDS = ("crash", "partition", "drop", "delay", "brownout")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the virtual-time injection instant.  Meaning of the rest
    varies by kind:

    * ``crash`` — *target* is the instance name; ``duration`` is the
      outage before the supervisor restarts it (``<= 0``: no restart).
    * ``partition`` — *target* is ``"roleA|roleB"``; messages between
      the two roles are dropped for ``duration`` seconds.
    * ``drop`` — every message is lost with probability ``magnitude``
      for ``duration`` seconds.
    * ``delay`` — every delivery is stretched by ``magnitude`` extra
      seconds for ``duration`` seconds.
    * ``brownout`` — the LRS answers with retryable errors with
      probability ``magnitude`` (and inflated latency otherwise) for
      ``duration`` seconds.
    """

    at: float
    kind: str
    target: str = ""
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (telemetry fault events embed this, so the
        kind goes under ``fault_kind``: ``kind`` is the event envelope's)."""
        return {
            "at": self.at,
            "fault_kind": self.kind,
            "target": self.target,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: (event.at, event.kind, event.target)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def shifted(self, offset: float) -> "FaultPlan":
        """Copy of the plan with every event moved by *offset* seconds."""
        return FaultPlan(tuple(replace(e, at=e.at + offset) for e in self.events))

    def of_kind(self, kind: str) -> List[FaultEvent]:
        """Events of one kind, in schedule order."""
        return [event for event in self.events if event.kind == kind]

    @classmethod
    def from_events(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        return cls(tuple(events))


@dataclass(frozen=True)
class ChaosSpec:
    """Knobs from which a seeded fault plan is sampled.

    Injection instants are drawn uniformly from the middle of the run
    (``[0.15, 0.7] * horizon``) so every fault has time to bite *and*
    to recover before measurement ends.
    """

    horizon: float
    #: Enclave crashes: how many, and outage length before restart.
    crashes: int = 2
    crash_outage: float = 1.0
    #: Network partitions between role pairs.
    partitions: int = 1
    partition_duration: float = 0.75
    partition_pairs: Tuple[str, ...] = ("ua|ia",)
    #: Probabilistic message-loss window.
    drop_windows: int = 1
    drop_duration: float = 0.75
    drop_probability: float = 0.05
    #: Delay-spike window.
    delay_windows: int = 1
    delay_duration: float = 0.75
    delay_extra_seconds: float = 0.02
    #: LRS brownouts.
    brownouts: int = 1
    brownout_duration: float = 1.0
    brownout_error_rate: float = 0.5

    def sample(
        self,
        rng: RngRegistry,
        ua_names: Sequence[str],
        ia_names: Sequence[str],
    ) -> FaultPlan:
        """Draw a concrete plan from the spec via the ``faults`` stream."""
        stream = rng.stream("faults")
        low, high = 0.15 * self.horizon, 0.7 * self.horizon
        crashables = list(ua_names) + list(ia_names)
        events: List[FaultEvent] = []
        for _ in range(self.crashes):
            if not crashables:
                break
            events.append(
                FaultEvent(
                    at=stream.uniform(low, high),
                    kind="crash",
                    target=stream.choice(crashables),
                    duration=self.crash_outage,
                )
            )
        for _ in range(self.partitions):
            events.append(
                FaultEvent(
                    at=stream.uniform(low, high),
                    kind="partition",
                    target=stream.choice(list(self.partition_pairs)),
                    duration=self.partition_duration,
                )
            )
        for _ in range(self.drop_windows):
            events.append(
                FaultEvent(
                    at=stream.uniform(low, high),
                    kind="drop",
                    duration=self.drop_duration,
                    magnitude=self.drop_probability,
                )
            )
        for _ in range(self.delay_windows):
            events.append(
                FaultEvent(
                    at=stream.uniform(low, high),
                    kind="delay",
                    duration=self.delay_duration,
                    magnitude=self.delay_extra_seconds,
                )
            )
        for _ in range(self.brownouts):
            events.append(
                FaultEvent(
                    at=stream.uniform(low, high),
                    kind="brownout",
                    target="lrs",
                    duration=self.brownout_duration,
                    magnitude=self.brownout_error_rate,
                )
            )
        return FaultPlan.from_events(events)
