"""The Harness-like recommendation engine behind the REST API.

Mirrors the module structure of §7: a MongoDB-like
:class:`repro.lrs.store.EventStore` persists pending feedback, a
Spark-like batch :meth:`HarnessEngine.train` job rebuilds the model
from accumulated inputs, and the (Elasticsearch-like) trained model
serves ``get`` queries.  The engine is algorithm-agnostic: any
:class:`repro.lrs.baselines.Recommender`-shaped object plugs in; the
default is the Universal Recommender's CCO.

This is the *functional* engine; the performance model of a scaled
Harness deployment lives in :mod:`repro.lrs.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lrs.cco import CcoModel, CcoTrainer
from repro.lrs.store import EventStore

__all__ = ["HarnessEngine"]

#: Most recent history items a ``get`` query is scored on.
HISTORY_LIMIT = 50


@dataclass
class HarnessEngine:
    """Functional recommendation engine with the LRS REST semantics."""

    store: EventStore = field(default_factory=EventStore)
    trainer: CcoTrainer = field(default_factory=CcoTrainer)
    model: Optional[CcoModel] = None
    default_n: int = 20
    trainings: int = 0

    def post_event(self, user: str, item: str, payload: Optional[str] = None) -> None:
        """Handle ``post(u, i[, p])``: persist the feedback event."""
        self.store.insert(user, item, payload)

    def train(self) -> CcoModel:
        """Run the batch model-building job (the Spark run of §7)."""
        self.model = self.trainer.train(self.store.interactions())
        self.trainings += 1
        return self.model

    def get_recommendations(self, user: str, n: Optional[int] = None) -> List[str]:
        """Handle ``get(u)``: top-n items for *user*.

        Before the first training run the engine has no model and
        returns an empty list (Harness behaves the same before the
        first Spark job completes).
        """
        if self.model is None:
            return []
        history = self.store.user_history(user, limit=HISTORY_LIMIT)
        return self.model.recommend(history, n=n if n is not None else self.default_n)

    @property
    def event_count(self) -> int:
        """Number of feedback events persisted so far."""
        return len(self.store)
