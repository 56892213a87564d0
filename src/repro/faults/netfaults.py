"""Network-level fault mechanisms: partitions, loss, delay spikes.

:class:`NetworkFaultController` implements the
:data:`repro.simnet.network.FaultFilter` hook.  It is pure mechanism —
windows are opened and closed by the :class:`~repro.faults.supervisor.
FaultSupervisor`, which owns scheduling and telemetry.  Windows nest:
two overlapping drop windows keep the higher loss probability, two
overlapping delay windows add up, and a partition stays up until every
opener has closed it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.simnet.network import FaultDecision, FlowRecord, Network

__all__ = ["NetworkFaultController"]


@dataclass
class NetworkFaultController:
    """Installable fault filter over a :class:`Network`.

    Drop decisions draw from a dedicated seeded stream, and the stream
    is only consulted while a loss window is open — so runs without
    faults, and two same-seed runs with identical plans, consume the
    stream identically (byte-determinism of the chaos scenario).
    """

    network: Network
    rng: random.Random
    _partitions: List[FrozenSet[str]] = field(default_factory=list)
    _drop_probabilities: List[float] = field(default_factory=list)
    _extra_delays: List[float] = field(default_factory=list)
    #: Messages lost to an active partition window.
    partition_drops: int = 0
    #: Messages lost to probabilistic loss windows.
    random_drops: int = 0
    #: Deliveries stretched by an active delay window.
    delays_injected: int = 0

    def install(self) -> None:
        """Attach this controller as the network's fault filter."""
        # Bound-method equality (not identity): each `self._filter`
        # access creates a fresh bound-method object.
        if self.network.fault_filter is not None and self.network.fault_filter != self._filter:
            raise RuntimeError("network already has a fault filter installed")
        self.network.fault_filter = self._filter

    # -- window management (called by the supervisor) -------------------

    def begin_partition(self, role_a: str, role_b: str) -> None:
        """Sever traffic between two roles (both directions)."""
        self._partitions.append(frozenset((role_a, role_b)))

    def end_partition(self, role_a: str, role_b: str) -> None:
        """Heal one opener's partition between the two roles."""
        self._partitions.remove(frozenset((role_a, role_b)))

    def begin_drop(self, probability: float) -> None:
        """Open a loss window of the given per-message probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {probability}")
        self._drop_probabilities.append(probability)

    def end_drop(self, probability: float) -> None:
        """Close one loss window."""
        self._drop_probabilities.remove(probability)

    def begin_delay(self, extra_seconds: float) -> None:
        """Open a delay-spike window adding *extra_seconds* per hop."""
        if extra_seconds < 0:
            raise ValueError(f"extra delay must be >= 0, got {extra_seconds}")
        self._extra_delays.append(extra_seconds)

    def end_delay(self, extra_seconds: float) -> None:
        """Close one delay-spike window."""
        self._extra_delays.remove(extra_seconds)

    # -- the filter -----------------------------------------------------

    def _filter(self, record: FlowRecord) -> Optional[FaultDecision]:
        endpoints = frozenset((record.source_role, record.destination_role))
        for partition in self._partitions:
            if partition == endpoints:
                self.partition_drops += 1
                return FaultDecision(drop=True)
        if self._drop_probabilities:
            probability = max(self._drop_probabilities)
            if self.rng.random() < probability:
                self.random_drops += 1
                return FaultDecision(drop=True)
        if self._extra_delays:
            self.delays_injected += 1
            return FaultDecision(extra_delay=sum(self._extra_delays))
        return None
