"""Legacy Recommendation System substrate.

A from-scratch Universal-Recommender-style engine (CCO with LLR
similarity), the baselines it is compared against, the document store
and batch trainer behind it, the nginx stub used by micro-benchmarks,
and the scalable Harness-like service model used by macro-benchmarks.
"""

from repro.lrs.baselines import ItemKnnRecommender, PopularityRecommender, Recommender
from repro.lrs.cco import CcoModel, CcoTrainer, llr_score
from repro.lrs.engine import HarnessEngine
from repro.lrs.evaluation import EvaluationResult, evaluate_recommender, leave_latest_out_split
from repro.lrs.service import HarnessCostModel, HarnessFrontend, HarnessService
from repro.lrs.store import EventStore, FeedbackEvent
from repro.lrs.stub import STATIC_ITEMS, StubLrs

__all__ = [
    "Recommender",
    "PopularityRecommender",
    "ItemKnnRecommender",
    "CcoModel",
    "CcoTrainer",
    "llr_score",
    "HarnessEngine",
    "EvaluationResult",
    "evaluate_recommender",
    "leave_latest_out_split",
    "HarnessService",
    "HarnessFrontend",
    "HarnessCostModel",
    "EventStore",
    "FeedbackEvent",
    "StubLrs",
    "STATIC_ITEMS",
]
