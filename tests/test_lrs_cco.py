"""CCO / LLR collaborative filtering correctness."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lrs import cco
from repro.lrs.cco import CcoModel, CcoTrainer
from tests.oracles.cco_reference import llr_score, packed_indicators, reference_recommend


def test_llr_zero_for_independent_events():
    """A perfectly proportional table carries no information."""
    assert llr_score(10, 10, 10, 10) == pytest.approx(0.0, abs=1e-9)


def test_llr_positive_for_correlated_events():
    assert llr_score(10, 1, 1, 100) > 5.0


def test_llr_symmetry():
    assert llr_score(5, 2, 3, 90) == pytest.approx(llr_score(5, 3, 2, 90))


def test_llr_grows_with_evidence():
    weak = llr_score(2, 1, 1, 20)
    strong = llr_score(20, 10, 10, 200)
    assert strong > weak


def test_llr_never_negative():
    for table in [(1, 0, 0, 0), (0, 1, 1, 0), (3, 3, 3, 3), (1, 2, 3, 4)]:
        assert llr_score(*table) >= 0.0


def test_llr_known_value():
    """Cross-check against the direct entropy formula."""
    k11, k12, k21, k22 = 13, 1000, 1000, 100_000

    def entropy(*ks):
        total = sum(ks)
        return -sum(k * math.log(k / total) for k in ks if k)

    expected = 2.0 * (
        entropy(k11 + k12, k21 + k22) + entropy(k11 + k21, k12 + k22)
        - entropy(k11, k12, k21, k22)
    )
    assert llr_score(k11, k12, k21, k22) == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=500)] * 4))
def test_llr_nonnegative_property(table):
    assert llr_score(*table) >= 0.0


def _train(events, **kwargs) -> CcoModel:
    return CcoTrainer(**kwargs).train(events)


OVERLAPPING = [
    ("alice", "i1"), ("alice", "i2"), ("alice", "i3"),
    ("bob", "i1"), ("bob", "i2"), ("bob", "i4"),
    ("carol", "i2"), ("carol", "i3"), ("carol", "i4"),
    ("dave", "i1"), ("dave", "i3"), ("dave", "i5"),
]


def test_recommends_co_occurring_item():
    model = _train(OVERLAPPING, llr_threshold=0.0)
    recs = model.recommend(["i1", "i2", "i3"], n=3)
    assert "i4" in recs or "i5" in recs
    assert not set(recs) & {"i1", "i2", "i3"}


def test_history_exclusion_can_be_disabled():
    model = _train(OVERLAPPING, llr_threshold=0.0)
    recs = model.recommend(["i1", "i2"], n=10, exclude_history=False)
    assert set(recs) & {"i1", "i2"}


def test_cold_start_falls_back_to_popularity():
    model = _train(OVERLAPPING, llr_threshold=0.0)
    recs = model.recommend(["unseen-item"], n=2)
    # i1..i3 are the most popular (3 interactions each).
    assert recs[0] in {"i1", "i2", "i3"}


def test_duplicate_interactions_are_deduplicated():
    events = [("u", "i1")] * 50 + [("v", "i1"), ("v", "i2"), ("u", "i2")]
    model = _train(events, llr_threshold=0.0)
    assert model.popularity["i1"] == 2  # u and v once each


def test_llr_threshold_prunes_weak_pairs():
    loose = _train(OVERLAPPING, llr_threshold=0.0)
    strict = _train(OVERLAPPING, llr_threshold=100.0)
    def edges(model):
        return sum(len(names) for names, _ in model.indicators.values())

    assert edges(strict) < edges(loose)
    assert edges(strict) == 0


def test_max_indicators_cap():
    events = [(f"u{i}", f"i{j}") for i in range(12) for j in range(10)]
    model = _train(events, llr_threshold=0.0, max_indicators=3)
    assert all(len(names) <= 3 for names, _ in model.indicators.values())


@pytest.mark.parametrize(
    "kwargs",
    [{"max_indicators": -1}, {"max_history": -1}, {"llr_threshold": float("nan")}],
)
def test_negative_sizes_and_a_nan_threshold_are_refused(kwargs):
    """``max_indicators=-1`` kept every list but its weakest entry,
    ``max_history=-1`` trained an empty model, and a NaN threshold kept
    every pair (no score is below NaN)."""
    with pytest.raises(ValueError):
        CcoTrainer(**kwargs)


def test_zero_sizes_are_legal():
    events = [("u1", "a"), ("u1", "b"), ("u1", "c"), ("u2", "a"), ("u2", "b"), ("u3", "c")]
    keyed = _train(events, llr_threshold=0.0, max_indicators=0)
    assert keyed.indicators == packed_indicators({"a": [], "b": [], "c": []})
    empty = _train(events, max_history=0)
    assert (empty.indicators, empty.popularity, empty.trained_on_events) == ({}, {}, 6)


def test_train_keeps_one_names_tuple_and_one_weight_array_per_item():
    """No (name, weight) tuple and no float object per indicator: each
    item's list is a tuple of names and an ``array('d')``, in step."""
    model = _train(OVERLAPPING, llr_threshold=0.0)
    assert model.indicators
    for names, weights in model.indicators.values():
        assert type(names) is tuple and type(weights) is array and weights.typecode == "d"
        assert len(names) == len(weights)


def test_max_history_downsampling():
    events = [("power-user", f"i{j}") for j in range(100)]
    model = _train(events, max_history=10, llr_threshold=0.0)
    assert model.popularity and sum(model.popularity.values()) == 10


def test_recommendation_is_deterministic():
    model = _train(OVERLAPPING, llr_threshold=0.0)
    assert model.recommend(["i1"], n=5) == model.recommend(["i1"], n=5)


#: X scores .1 + .2 + .3 and Y 0.6, alone and in a crowd: 64 more history
#: items, each naming 200 fillers, make 13,604 postings in lists of 200
#: and 201 - a query decided from the heads, X and Y re-scored.
_MODELS = """
from repro.lrs.cco import CcoModel
from tests.oracles.cco_reference import packed_indicators
scored = {"X": [("a", 0.1), ("b", 0.2), ("c", 0.3)], "Y": [("d", 0.6)]}
history = ["a", "b", "c", "d"]
crowd = [f"g{index}" for index in range(64)]
fillers = {f"f{index:03d}": [(seen, 1e-6) for seen in history + crowd] for index in range(200)}
model = CcoModel(indicators=packed_indicators(scored), popularity={"Y": 1})
crowded = CcoModel(indicators=packed_indicators({**scored, **fillers}), popularity={"Y": 1})
"""

_HASH_SEED_PROBE = _MODELS + """
from repro.lrs.baselines import ItemKnnRecommender
knn = ItemKnnRecommender(
    neighbours={"a": [("zX", 0.1)], "b": [("zX", 0.2)], "c": [("zX", 0.3)], "d": [("aY", 0.6)]}
)
print(model.recommend(history), crowded.recommend(history + crowd, n=2), knn.recommend(history))
"""


def test_ranking_does_not_depend_on_the_hash_seed():
    """Weights are summed in history order, not ``set`` order.

    X scores .1 + .2 + .3, which is 0.6000000000000001 or 0.6 depending
    on the order of the additions; Y scores 0.6 and wins ties on
    popularity.  Summed over a ``set`` the two swap places with
    ``PYTHONHASHSEED`` (three of these eight seeds put Y first).  In the
    crowd the candidates come out of a ``set().union`` of item numbers
    and X is re-scored from its forward list: neither may leak an
    order.  The item-kNN baseline sums similarities the same way: zX
    against aY, which wins ties on its id.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), root])  # the helper lives with the tests
    rankings = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
        finished = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        rankings.add(finished.stdout.strip())
    assert rankings == {"['X', 'Y'] ['X', 'Y'] ['zX', 'aY']"}


def test_the_crowded_query_is_decided_from_the_heads():
    """At the module's own constants: one pass over prefixes, no second
    over whole lists - and the seed's ranking."""
    names: dict = {}
    exec(_MODELS, names)
    crowded, history = names["crowded"], names["history"] + names["crowd"]
    with mock.patch.object(cco, "_accumulate", wraps=cco._accumulate) as reads:
        assert crowded.recommend(history, n=2) == reference_recommend(crowded, history, n=2)
        assert [call.args[-1] for call in reads.call_args_list] == [cco.PREFIX]
        # Twenty asks for fillers too, and a filler behind a head ties
        # with the twentieth: the heads decide nothing, read it all.
        assert crowded.recommend(history) == reference_recommend(crowded, history)
        assert [call.args[-1] for call in reads.call_args_list[1:]] == [cco.PREFIX, 13_604]


def test_n_limits_result_size():
    model = _train(OVERLAPPING, llr_threshold=0.0)
    assert len(model.recommend(["i1", "i2"], n=1)) == 1


def test_empty_model_returns_nothing():
    model = CcoTrainer().train([])
    assert model.recommend(["i1"]) == []


@settings(max_examples=20, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3", "u4"]),
            st.sampled_from(["a", "b", "c", "d", "e"]),
        ),
        max_size=40,
    )
)
def test_recommendations_never_include_history(events):
    model = CcoTrainer(llr_threshold=0.0).train(events)
    history = ["a", "b"]
    assert not set(model.recommend(history, n=10)) & set(history)
