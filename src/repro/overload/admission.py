"""Admission control at the proxy front door.

:class:`OverloadSignal` is the shared vocabulary of overload: ingress
queue depth, head-of-line sojourn time, in-flight enclave work and EPC
paging pressure (from :meth:`repro.sgx.costs.SgxCostModel.
paging_pressure` — a proxy whose pending-request table pages against
the EPC serves *everything* slower, so admission must tighten before
that cliff).  The UA front door consults an
:class:`AdmissionController` before a request touches the shuffle
buffer or the enclave; the autoscaler and the health monitor consume
the same signal for scale-up and operator-event decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["OverloadSignal", "AdmissionController"]


@dataclass(frozen=True)
class OverloadSignal:
    """Point-in-time overload indicators for one proxy instance."""

    #: Entries waiting in the ingress queue.
    queue_depth: int = 0
    #: Queueing delay of the oldest waiting entry (seconds).
    queue_sojourn: float = 0.0
    #: Jobs submitted to the host node and not yet completed.
    inflight: int = 0
    #: EPC working-set pressure (>1.0 means the enclave is paging).
    epc_pressure: float = 0.0


@dataclass
class AdmissionController:
    """Reject-before-queue policy driven by :class:`OverloadSignal`.

    Depth overflow is left to the bounded ingress queue (it refuses
    the newcomer); the controller guards the
    slower-moving signals — standing sojourn time and EPC pressure —
    that indicate the queue bound alone is not protecting latency.
    """

    max_sojourn: float = 0.25
    max_pressure: float = 1.0
    admitted: int = 0
    rejected: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)

    def admit(self, signal: OverloadSignal) -> Optional[str]:
        """None to admit, else the shed-reason label."""
        reason = None
        if signal.queue_sojourn > self.max_sojourn:
            reason = "sojourn"
        elif signal.epc_pressure > self.max_pressure:
            reason = "epc_pressure"
        if reason is None:
            self.admitted += 1
            return None
        self.rejected += 1
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1
        return reason
