"""Fault plans: the operator timeline of a drill.

A :class:`FaultPlan` is a deterministic schedule of :class:`FaultEvent`
entries in *virtual* time, each ``at`` seconds after traffic starts.
Its verbs are the five faults of :data:`FAULT_KINDS` and the three
operations of :data:`OPERATOR_VERBS` (rotate a layer's keys, split or
merge a shard); :class:`~repro.faults.supervisor.FaultSupervisor` is
the one scheduler.  A malformed entry is refused when it is built, a
verb with no executor when the plan is armed — never mid-run.

Plans are written literally in a scenario, or sampled from a
:class:`ChaosSpec` through a named :class:`~repro.simnet.rng.RngRegistry`
stream — the same seed always yields the same plan, which is what makes
two chaos runs with one seed byte-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.simnet.rng import RngRegistry

__all__ = ["FaultEvent", "FaultPlan", "ChaosSpec", "FAULT_KINDS", "OPERATOR_VERBS"]

#: Fault kinds the supervisor knows how to inject.
FAULT_KINDS = ("crash", "partition", "drop", "delay", "brownout")
#: Operations a plan drives through their executors: a
#: :class:`~repro.proxy.epochs.RotationCoordinator` announces, a
#: :class:`~repro.fleet.supervisor.FleetSupervisor` splits and merges.
OPERATOR_VERBS = ("rotate", "split", "merge")


def _pair(target: str) -> bool:
    """True for an ``"a|b"`` target with both sides non-empty."""
    left, bar, right = target.partition("|")
    return bool(bar and left and right)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled plan entry.

    ``at`` is the injection instant, in seconds after traffic start.
    Meaning of the rest varies by kind:

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
    * ``rotate`` — *target* is the layer (``UA`` / ``IA``) whose next
      key epoch is announced.
    * ``split`` — *target* is the shard id to split.
    * ``merge`` — *target* is ``"source|into"``: the source shard's
      key ranges fall to its ring successors and it retires.
    """

    at: float
    kind: str
    target: str = ""
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        kinds = FAULT_KINDS + OPERATOR_VERBS
        if self.kind not in kinds:
            raise ValueError(f"unknown plan kind {self.kind!r}; expected one of {kinds}")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"plan time must be finite and >= 0, got {self.at}")
        if not math.isfinite(self.duration):
            raise ValueError(f"{self.kind} duration must be finite, got {self.duration}")
        if self.kind in ("partition", "drop", "delay", "brownout") and self.duration < 0:
            raise ValueError(f"{self.kind} window needs a duration >= 0, got {self.duration}")
        if self.kind in ("partition", "merge") and not _pair(self.target):
            raise ValueError(f"{self.kind} target must be 'a|b', got {self.target!r}")
        if self.kind in ("drop", "brownout") and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"{self.kind} probability must be in [0, 1], got {self.magnitude}")
        if self.kind == "delay" and not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError(f"delay must be finite and >= 0, got {self.magnitude}")
        if self.kind == "rotate" and self.target not in ("UA", "IA"):
            raise ValueError(f"rotate target must be 'UA' or 'IA', got {self.target!r}")
        if self.kind == "split" and not self.target:
            raise ValueError("split needs a shard id")

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
    """An immutable, time-ordered schedule of plan entries."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: (event.at, event.kind, event.target)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def from_events(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        return cls(tuple(events))


#: Enclave crashes in a sampled plan, each on a drawn UA or IA instance.
CRASHES = 2
#: How long a sampled partition cuts the UA <-> IA path, seconds.
PARTITION_SECONDS = 0.75
#: The windows a sampled plan opens after its crashes, in draw order:
#: kind, target, duration (s), magnitude.  A tuple target is drawn from.
WINDOWS: Tuple[Tuple[str, Any, float, float], ...] = (
    ("partition", ("ua|ia",), PARTITION_SECONDS, 0.0),
    ("drop", "", 0.75, 0.05),
    ("delay", "", 0.75, 0.02),
    ("brownout", "lrs", 1.0, 0.5),
)


@dataclass(frozen=True)
class ChaosSpec:
    """What a seeded fault plan is sampled from: :data:`CRASHES` crashes
    of *crash_outage* seconds, then one of each of :data:`WINDOWS`.

    Injection instants are drawn uniformly from the middle of the run
    (``[0.15, 0.7] * horizon``) so every fault has time to bite *and*
    to recover before measurement ends.
    """

    horizon: float
    #: Outage of a crashed enclave before its restart, seconds.
    crash_outage: float = 1.0

    def sample(
        self,
        rng: RngRegistry,
        ua_names: Sequence[str],
        ia_names: Sequence[str],
    ) -> FaultPlan:
        """Draw a concrete plan from the spec via the ``faults`` stream:
        per entry one instant, then its target when it has a choice."""
        stream = rng.stream("faults")
        low, high = 0.15 * self.horizon, 0.7 * self.horizon
        crashables = list(ua_names) + list(ia_names)
        crashes = [("crash", crashables, self.crash_outage, 0.0)] * (CRASHES if crashables else 0)
        events: List[FaultEvent] = []
        for kind, target, duration, magnitude in crashes + list(WINDOWS):
            at = stream.uniform(low, high)
            if not isinstance(target, str):
                target = stream.choice(target)
            events.append(
                FaultEvent(at=at, kind=kind, target=target, duration=duration, magnitude=magnitude)
            )
        return FaultPlan.from_events(events)
