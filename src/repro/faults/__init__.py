"""Deterministic fault injection and the drill's operator timeline.

The subsystem has three mechanism layers and one policy layer:

* :mod:`repro.faults.plan` — *what happens when*: an immutable
  :class:`FaultPlan` of faults and operator verbs (rotate, split,
  merge), timed from traffic start, written literally or sampled from
  a :class:`ChaosSpec`;
* :mod:`repro.faults.netfaults` — wire faults (partitions, loss,
  delay spikes) behind the network's fault-filter hook;
* :mod:`repro.faults.brownout` — LRS degradation (retryable errors,
  inflated latency) as a transparent handle wrapper;
* :mod:`repro.faults.supervisor` — the one scheduler of a plan: it
  crashes and restarts enclave instances, opens/closes fault windows,
  emits structured chaos telemetry, and hands each verb to its
  executor (the rotation coordinator, the fleet supervisor).

Everything runs on the virtual clock and draws from named RNG streams,
so a chaos run is exactly as reproducible as a fault-free one.
"""

from repro.faults.brownout import BrownoutLrs
from repro.faults.netfaults import NetworkFaultController
from repro.faults.plan import FAULT_KINDS, OPERATOR_VERBS, ChaosSpec, FaultEvent, FaultPlan
from repro.faults.supervisor import FaultSupervisor

__all__ = [
    "BrownoutLrs",
    "ChaosSpec",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultSupervisor",
    "NetworkFaultController",
    "OPERATOR_VERBS",
]
