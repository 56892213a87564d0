"""The Harness-like recommendation engine behind the REST API.

Mirrors the module structure of §7: a MongoDB-like
:class:`repro.lrs.store.EventStore` persists pending feedback, a
Spark-like batch :meth:`HarnessEngine.train` job rebuilds the model
from accumulated inputs, and the (Elasticsearch-like) trained model
serves ``get`` queries.  The engine is algorithm-agnostic: any
:class:`repro.lrs.baselines.Recommender`-shaped object plugs in; the
default is the Universal Recommender's CCO.

An answer is a pure function of (model, last ``HISTORY_LIMIT`` history
items, n), so the engine keeps the answers it builds: a get whose
history and n it already answered under the current model is served
from memory, and only a miss runs the query.  At most
``ANSWER_MEMO_ENTRIES`` answers are kept, the oldest evicted first; the
memo empties at a training run, so the model it replaces is freed
then, and at the first get after ``model`` is assigned another object;
a post that changes a history changes its key.

This is the *functional* engine; the performance model of a scaled
Harness deployment lives in :mod:`repro.lrs.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lrs.cco import CcoModel, CcoTrainer
from repro.lrs.store import EventStore

__all__ = ["HarnessEngine"]

#: Most recent history items a ``get`` query is scored on.
HISTORY_LIMIT = 50
#: Answers kept: one per user of the paper's 7,288-user slice (≈ 5 MiB).
ANSWER_MEMO_ENTRIES = 8192


@dataclass
class HarnessEngine:
    """Functional recommendation engine with the LRS REST semantics."""

    store: EventStore = field(default_factory=EventStore)
    trainer: CcoTrainer = field(default_factory=CcoTrainer)
    model: Optional[CcoModel] = None
    default_n: int = 20
    trainings: int = 0
    #: Gets answered from memory, and gets that ran the query.
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    _answers: Dict[Tuple[Tuple[str, ...], int], List[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _answered_by: Optional[CcoModel] = field(default=None, init=False, repr=False, compare=False)

    def post_event(self, user: str, item: str, payload: Optional[str] = None) -> None:
        """Handle ``post(u, i[, p])``: persist the feedback event."""
        self.store.insert(user, item, payload)

    def train(self) -> CcoModel:
        """Run the batch model-building job (the Spark run of §7)."""
        # The memo would keep the superseded model (and its query index)
        # alive until the next get.
        self._answers.clear()
        self._answered_by = None
        self.model = self.trainer.train(self.store)
        self.trainings += 1
        return self.model

    def get_recommendations(self, user: str, n: Optional[int] = None) -> List[str]:
        """Handle ``get(u)``: top-n items for *user*, a new list per call.

        Before the first training run the engine has no model and
        returns an empty list (Harness behaves the same before the
        first Spark job completes).
        """
        model = self.model
        if model is None:
            return []
        if self._answered_by is not model:
            self._answers.clear()
            self._answered_by = model
        key = (tuple(self.store.user_history(user, limit=HISTORY_LIMIT)),
               n if n is not None else self.default_n)
        answer = self._answers.get(key)
        if answer is None:
            self.misses += 1
            answer = self._answers[key] = model.recommend(*key)
            if len(self._answers) > ANSWER_MEMO_ENTRIES:
                del self._answers[next(iter(self._answers))]
        else:
            self.hits += 1
        return answer.copy()

    @property
    def event_count(self) -> int:
        """Number of feedback events persisted so far."""
        return len(self.store)
