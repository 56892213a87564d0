"""Adversary model and privacy analysis machinery (paper §6)."""

from repro.privacy.adversary import Adversary, ObservedMessage
from repro.privacy.history import HistoryAttack, HistoryAttackResult
from repro.privacy.linkage import LinkageOutcome, ShuffleLinkageExperiment
from repro.privacy.unlinkability import KnowledgeEngine, Link, fifo_correlation
from repro.privacy.wire import (
    RejectAuditor,
    hop_of,
    trace_field_exposures,
)

__all__ = [
    "Adversary",
    "ObservedMessage",
    "KnowledgeEngine",
    "Link",
    "fifo_correlation",
    "ShuffleLinkageExperiment",
    "LinkageOutcome",
    "HistoryAttack",
    "HistoryAttackResult",
    "RejectAuditor",
    "hop_of",
    "trace_field_exposures",
]
