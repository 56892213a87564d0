"""The cheap LRS kernels return what the seed's loops returned, in order.

``CcoTrainer.train``, ``CcoModel.recommend`` and ``SyntheticMovieLens``
were rewritten for cost (pairs counted in C, one LLR per distinct
table, dense accumulators, a top-n bounded from the heads of sorted
posting lists, ratings drawn from cumulative weights); the seed's
bodies are the oracle in ``tests/oracles/cco_reference.py``.
Equality here is *order-sensitive*: indicator lists, dict key order and
event order are what every scenario artifact downstream is a function
of, so ``==`` on the dicts alone would not pin them.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lrs import cco
from repro.lrs.cco import CcoModel, CcoTrainer
from repro.workload.movielens import SyntheticMovieLens
from tests.oracles.cco_reference import (
    ReferenceMovieLens,
    model_in_order,
    reference_recommend,
    reference_train,
    trace_in_order,
)

USERS = [f"u{index}" for index in range(7)]
ITEMS = [f"i{index}" for index in range(9)]

#: Draws repeat pairs (duplicates) and, with ``max_history`` as low as
#: 1, run most histories past the cap.
event_streams = st.lists(
    st.tuples(st.sampled_from(USERS), st.sampled_from(ITEMS)), max_size=80
)
trainers = st.builds(
    CcoTrainer,
    max_history=st.sampled_from([1, 2, 4, 50]),
    max_indicators=st.sampled_from([0, 1, 2, 50]),
    llr_threshold=st.sampled_from([0.0, 0.5, 1.0, 2.5, float("inf")]),
)
#: Histories with repeats, items no model knows, and (at length 12 over
#: a 9-item catalogue) ones that cover every scored candidate.
histories = st.lists(st.sampled_from(ITEMS + ["unknown-1", "unknown-2"]), max_size=12)
#: Weights whose sums depend on the order of the additions
#: (.1 + .2 + .3 != .3 + .2 + .1) and that tie often; LLR is never
#: negative, a hand-made model's weight can be.
weights = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.5, -0.4])
hand_made_models = st.builds(
    CcoModel,
    indicators=st.dictionaries(
        st.sampled_from(ITEMS),
        st.lists(st.tuples(st.sampled_from(ITEMS), weights), max_size=6),
    ),
    popularity=st.dictionaries(st.sampled_from(ITEMS), st.integers(0, 3)),
)
#: Models the bounded path accepts (no item twice in a posting list, no
#: negative weight) over a catalogue large enough for lists longer than
#: a toy prefix.  The weights are heavy-tailed (a head worth more than
#: every tail together is what lets the bound close), tie often, and
#: include 0.0: a posting that adds nothing still nominates its item.
CATALOGUE = [f"m{index:02d}" for index in range(16)]
heavy_tailed = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1.5, 40.0, 1000.0])
long_listed_models = st.builds(
    CcoModel,
    indicators=st.dictionaries(
        st.sampled_from(CATALOGUE),
        st.dictionaries(st.sampled_from(CATALOGUE), heavy_tailed, min_size=2, max_size=8).map(
            lambda weighted: list(weighted.items())
        ),
        min_size=8,
    ),
    popularity=st.dictionaries(st.sampled_from(CATALOGUE), st.integers(0, 3)),
)
long_histories = st.lists(st.sampled_from(CATALOGUE + ["unknown-1", "unknown-2"]), max_size=12)


def _toy_prefixes():
    """The bounded path at hand-made size: heads of two postings, for
    every history with more than four."""
    return mock.patch.multiple(cco, PREFIX=2, PREFIX_FROM_POSTINGS=4)


def _assert_same_rankings(model: CcoModel, history) -> None:
    for exclude_history in (True, False):
        everything = reference_recommend(model, history, 10**6, exclude_history)
        for n in {0, 1, 2, 5, 20, len(everything) - 1, len(everything), len(everything) + 1}:
            if n < 0:
                continue
            assert model.recommend(history, n, exclude_history) == reference_recommend(
                model, history, n, exclude_history
            ), (n, exclude_history)


@settings(max_examples=150, deadline=None)
@given(trainer=trainers, events=event_streams)
def test_train_equals_the_seed_loops_in_value_and_order(trainer, events):
    model = trainer.train(iter(events))
    assert model_in_order(model) == model_in_order(reference_train(trainer, events))


def test_llr_is_scored_per_whole_contingency_table():
    """Pairs (a, b) and (a, c) share k11 and k12 and differ in k21."""
    events = [("u1", "a"), ("u1", "b"), ("u1", "c"), ("u2", "a"), ("u3", "a")]
    events += [(f"v{index}", "c") for index in range(6)]
    trainer = CcoTrainer(llr_threshold=0.0)
    model = trainer.train(events)
    assert model_in_order(model) == model_in_order(reference_train(trainer, events))
    weight = {item: dict(weighted) for item, weighted in model.indicators.items()}
    assert weight["a"]["b"] != weight["a"]["c"]


@settings(max_examples=150, deadline=None)
@given(events=event_streams, history=histories)
def test_recommend_equals_the_seed_ranking_on_trained_models(events, history):
    # Threshold 0 keeps every pair, and small tables repeat, so equal
    # scores at the cut are the common case here, not the rare one.
    _assert_same_rankings(CcoTrainer(llr_threshold=0.0).train(events), history)


@settings(max_examples=150, deadline=None)
@given(model=hand_made_models, history=histories)
def test_recommend_equals_the_seed_ranking_on_hand_made_models(model, history):
    _assert_same_rankings(model, history)


@settings(max_examples=300, deadline=None)
@given(model=st.one_of(long_listed_models, hand_made_models), history=long_histories)
def test_recommend_from_the_heads_equals_the_seed_ranking(model, history):
    with _toy_prefixes():
        _assert_same_rankings(model, history)


def test_ties_at_the_cut_are_broken_by_the_full_key():
    """Five candidates score the same; popularity, then id, pick two."""
    model = CcoModel(
        indicators={item: [("seen", 1.0)] for item in ("e", "d", "c", "b", "a")},
        popularity={"c": 2, "d": 2, "a": 1},
    )
    assert model.recommend(["seen"], n=2) == ["c", "d"]
    assert model.recommend(["seen"], n=3) == ["c", "d", "a"]
    _assert_same_rankings(model, ["seen"])


def test_weights_are_summed_in_history_order_before_the_history_is_dropped():
    """.1 + .2 + .3 outranks .6; .3 + .2 + .1 ties with it and loses on id."""
    model = CcoModel(
        indicators={"X": [("a", 0.1), ("b", 0.2), ("c", 0.3)], "A": [("d", 0.6)], "a": [("b", 9.0)]},
    )
    assert model.recommend(["a", "b", "c", "d"], n=1) == ["X"]
    assert model.recommend(["c", "b", "a", "d"], n=1) == ["A"]
    _assert_same_rankings(model, ["a", "b", "c", "d"])
    _assert_same_rankings(model, ["c", "b", "a", "d"])


def test_an_unread_posting_of_weight_zero_is_not_a_list_read_whole():
    """Heads ``a`` and ``b`` tie at 0.0 with a bound of 0.0 - and ``c``,
    ``d``, ``e``, behind the heads with the same 0.0, are candidates the
    seed ranks first on popularity.  A bound of 0.0 decides nothing."""
    model = CcoModel(
        indicators={item: [("seen", 0.0)] for item in "abcde"},
        popularity={"e": 3, "d": 2, "c": 1},
    )
    with _toy_prefixes():
        assert model.recommend(["seen"], n=2) == ["e", "d"]
        _assert_same_rankings(model, ["seen"])


def test_a_candidate_that_scored_zero_outranks_the_popularity_fallback():
    model = CcoModel(indicators={"quiet": [("seen", 0.0)]}, popularity={"loud": 9, "quiet": 1})
    assert model.recommend(["seen"], n=1) == ["quiet"]
    assert model.recommend(["other"], n=1) == ["loud"]
    _assert_same_rankings(model, ["seen"])


def test_survivors_of_the_heads_are_rescored_in_history_order():
    """The history-order test above, through the bounded path: ``X`` and
    ``A`` survive heads of two (the cut is 0.6, every tail adds 0.01 at
    most), and what ranks them is the seed's sequence of additions - not
    the forward list's order, and not the partial sums: ``X``'s posting
    under ``e`` lies behind the head and breaks the tie."""
    fillers = {f"f{index}": [(seen, 0.01) for seen in "abcde"] for index in range(4)}
    model = CcoModel(
        indicators={
            "X": [("a", 0.1), ("b", 0.2), ("c", 0.3), ("e", 0.005)],
            "A": [("d", 0.6)],
            **fillers,
        },
    )
    with _toy_prefixes():
        assert model.recommend(["a", "b", "c", "d"], n=1) == ["X"]
        assert model.recommend(["c", "b", "a", "d"], n=1) == ["A"]
        assert model.recommend(["c", "b", "a", "d", "e"], n=1) == ["X"]
        for history in (["a", "b", "c", "d"], ["c", "b", "a", "d"], ["c", "b", "a", "d", "e"]):
            _assert_same_rankings(model, history)


def test_lists_no_head_can_bound_are_read_whole_and_in_forward_order():
    """An item named twice under one indicator is added twice, in the
    forward list's order ((.2 + .1) + .3 beats 0.6, (.2 + .3) + .1 ties
    with it and loses on id), and a negative weight makes the first
    unread posting a bound on nothing: such a model's lists are neither
    sorted nor cut short, however long."""
    twice = CcoModel(
        indicators={
            "X": [("a", 0.2), ("h", 0.1), ("h", 0.3)],
            "A": [("d", 0.6)],
            **{f"f{index}": [("h", 0.01)] for index in range(3)},
        }
    )
    negative = CcoModel(
        indicators={"a": [("h", 5.0)], "b": [("h", 4.0)], **{i: [("h", -1.0)] for i in "cde"}}
    )
    with _toy_prefixes():
        assert twice.recommend(["a", "h", "d"], n=1) == ["X"]
        assert negative.recommend(["h"], n=2) == ["a", "b"]
        _assert_same_rankings(twice, ["a", "h", "d"])
        _assert_same_rankings(negative, ["h"])


@pytest.mark.parametrize("scale", [0.002, 0.01, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 7, 2014, 31337])
def test_generated_trace_equals_the_seed_generator(seed, scale):
    trace = SyntheticMovieLens(seed=seed, scale=scale)
    expected = ReferenceMovieLens(seed=seed, scale=scale)
    assert trace_in_order(trace) == trace_in_order(expected)
    assert trace.query_users(200, random.Random(seed)) == expected.query_users(
        200, random.Random(seed)
    )


@pytest.mark.parametrize(
    "shape",
    [
        {"genre_count": 1},
        {"genre_count": 5, "genre_affinity": 0.0},
        {"genre_affinity": 1.0, "zipf_exponent": 0.5},
    ],
)
def test_generated_trace_equals_the_seed_generator_off_the_defaults(shape):
    trace = SyntheticMovieLens(seed=11, scale=0.005, **shape)
    assert trace.events == ReferenceMovieLens(seed=11, scale=0.005, **shape).events
