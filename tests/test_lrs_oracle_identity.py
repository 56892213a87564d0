"""The cheap LRS kernels return what the seed's loops returned, in order.

``CcoTrainer.train``, ``CcoModel.recommend`` and ``SyntheticMovieLens``
were rewritten for cost (the model built one item's row of pairs at a
time, each distinct table's LLR summed from per-item entropies and
per-training cell terms, dense accumulators, a top-n bounded from the
heads of sorted posting lists, each rating one bisect of a cumulative
weight list); the seed's bodies, ``llr_score`` included, are the oracle
in ``tests/oracles/cco_reference.py``, which imports nothing of the
kernels it checks.  Equality here is *order-sensitive*: indicator
lists, dict key order and event order are what every scenario artifact
downstream is a function of, so ``==`` on the dicts alone would not pin
them; and weights are compared by ``float.hex``, since ``==`` holds
``-0.0`` equal to ``0.0``.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lrs import cco
from repro.lrs.cco import CcoModel, CcoTrainer
from repro.workload import movielens
from repro.workload.movielens import SyntheticMovieLens
from tests.oracles import cco_reference
from tests.oracles.cco_reference import (
    ReferenceMovieLens,
    llr_score,
    model_in_order,
    packed_indicators,
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
    ).map(packed_indicators),
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
    ).map(packed_indicators),
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


#: Eight users, ``a`` held by six, ``b`` by four, both by three: an
#: independent table whose LLR sums to -3.6e-15 before the guard, so at
#: threshold 0.0 the pair is kept at weight 0.0 only if it is applied.
INDEPENDENT = (
    [(f"w{index}", "a") for index in range(6)]
    + [(f"w{index}", "b") for index in range(3, 7)]
    + [("w7", "c")]
)


@settings(max_examples=150, deadline=None)
@given(trainer=trainers, events=event_streams)
@example(trainer=CcoTrainer(llr_threshold=0.0), events=INDEPENDENT)
def test_train_equals_the_seed_loops_in_value_and_order(trainer, events):
    model = trainer.train(iter(events))
    assert model_in_order(model) == model_in_order(reference_train(trainer, events))


@pytest.fixture(scope="module")
def movielens_events():
    return SyntheticMovieLens(seed=7, scale=0.02).events


@pytest.mark.parametrize("max_history", [50, 100])
def test_train_equals_the_seed_loops_on_a_movielens_stream(movielens_events, max_history):
    """At the default ``max_indicators`` some item's pending list is cut
    on the way (the Hypothesis catalogue reaches the cut only at
    ``max_indicators <= 2``), and at ``max_history=100`` some history is
    longer than 64 items."""
    trainer = CcoTrainer(max_history=max_history)
    expected = reference_train(trainer, movielens_events)
    assert model_in_order(trainer.train(movielens_events)) == model_in_order(expected)

    uncut = reference_train(
        CcoTrainer(max_history=max_history, max_indicators=10**6), movielens_events
    )
    earlier_partners = max(
        sum(partner < item for partner in names) for item, (names, _) in uncut.indicators.items()
    )
    assert earlier_partners >= 2 * trainer.max_indicators
    # The generator emits each (user, item) once.
    assert max(Counter(user for user, _ in movielens_events).values()) > 64


def test_train_holds_at_most_half_the_memory_of_the_seed_loops(movielens_events):
    """One item's row at a time, not a table of every co-occurring pair:
    the ``tracemalloc`` peak of a training against the oracle's, on the
    same stream (a ratio, so it holds across interpreter versions)."""
    trainer = CcoTrainer()
    peaks = []
    for train in (trainer.train, lambda events: reference_train(trainer, events)):
        tracemalloc.start()
        try:
            train(movielens_events)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    kernel, oracle = peaks
    assert kernel <= oracle / 2, peaks


#: ``z`` is last in name order, so every pair naming it waits in its
#: pending list.  Each of ``a`` .. ``h`` shares one user with ``z``;
#: ``b`` and ``e`` also share ``x``: two partners score one LLR and six
#: another, all equal within their group.
STRADDLING = (
    [(f"w{index}", partner) for index, partner in enumerate("abcdefgh")]
    + [(f"w{index}", "z") for index in range(8)]
    + [("x", "b"), ("x", "e"), ("y", "z")]
)


def test_equal_scores_straddling_a_pending_cut_keep_the_seeds_order():
    """At ``max_indicators=3`` ``z``'s pending list is cut at six entries,
    ``a`` .. ``f``, to ``b``, ``e`` and the smallest name of the six-way
    tie; ``g`` and ``h`` tie with it after the cut.  A sort on the score
    alone keeps ``(-score, name)`` only while partners arrive ascending."""
    trainer = CcoTrainer(max_indicators=3, llr_threshold=0.0)
    model = trainer.train(STRADDLING)
    assert model_in_order(model) == model_in_order(reference_train(trainer, STRADDLING))
    names, weights = model.indicators["z"]
    assert names == ("b", "e", "a")
    assert weights[0] == weights[1] > weights[2]
    uncut = reference_train(CcoTrainer(max_indicators=10**6, llr_threshold=0.0), STRADDLING)
    assert list(uncut.indicators["z"][1]).count(weights[2]) == 6


#: ``z``'s first holder ``w0`` holds ``a`` beside it, a pair under the
#: default threshold; ``w4`` and ``w5`` hold ``y`` beside it, a pair
#: over it.  ``m`` and ``n``, held together by ``w2`` and ``w3``, are
#: placed in between.
FIRST_HOLDER_UNSCORED = (
    [("w0", "a"), ("w0", "z"), ("w1", "a")]
    + [("w2", "n"), ("w2", "m"), ("w3", "m"), ("w3", "n")]
    + [(f"f{index}", "c") for index in range(3)]
    + [("w4", "z"), ("w4", "y"), ("w5", "y"), ("w5", "z")]
)


def _assert_keys(trainer: CcoTrainer, events, keys) -> None:
    model = trainer.train(events)
    assert list(model.indicators) == keys
    assert model_in_order(model) == model_in_order(reference_train(trainer, events))


def test_an_item_whose_first_holder_holds_no_scored_partner_is_placed_at_a_later_one():
    """``z`` goes where (y, z) at ``w4`` puts it, after (m, n) at ``w2``:
    not where its first holder's unscored (a, z) would, and not nowhere.
    ``y`` comes before ``z`` at ``w4``, so that pair is scored again, its
    ``both`` counted from the two items' holders."""
    _assert_keys(CcoTrainer(), FIRST_HOLDER_UNSCORED, ["m", "n", "y", "z"])


def test_an_item_in_no_scored_pair_has_no_key():
    """``a`` and ``b`` share three users, an independent table under the
    threshold: neither gets a key, though ``b``'s first holder holds
    ``a``."""
    events = INDEPENDENT + [("w8", "x"), ("w8", "y"), ("w9", "x"), ("w9", "y")]
    _assert_keys(CcoTrainer(), events, ["x", "y"])


def test_a_scored_partner_before_the_item_in_its_first_holder_outranks_one_after():
    """One user holds ``a``, ``b`` and ``c``, every pair scored: ``b`` goes
    where (a, b) puts it, not where (b, c) would - after ``c``, which
    (a, c) places."""
    events = [("w0", "c"), ("w0", "b"), ("w0", "a")]
    _assert_keys(CcoTrainer(llr_threshold=0.0), events, ["a", "b", "c"])


def test_two_items_that_tie_on_the_pair_they_share_go_smaller_name_first():
    """(a, b) at ``w2`` places both - ``b`` through a later holder, as its
    first one holds nothing else - and ``w2`` names ``b`` first; (c, d)
    at ``w1`` is one tie more."""
    events = [("w0", "b"), ("w1", "d"), ("w1", "c"), ("w2", "b"), ("w2", "a")]
    _assert_keys(CcoTrainer(llr_threshold=0.0), events, ["c", "d", "a", "b"])


@st.composite
def co_occurrences(draw):
    """(users, row item count, column item count, users holding both) of
    a pair some user holds, up to the paper's 7,288 users."""
    users = draw(st.integers(1, 7288))
    count = draw(st.integers(1, users))
    other = draw(st.integers(1, users))
    both = draw(st.integers(max(1, count + other - users), min(count, other)))
    return users, count, other, both


@settings(max_examples=200, deadline=None)
@given(table=co_occurrences())
@example(table=(1, 1, 1, 1))
@example(table=(5, 5, 5, 5))
@example(table=(7288, 7288, 3, 3))
@example(table=(10, 3, 8, 1))
@example(table=(7288, 1, 1, 1))
@example(table=(7288, 4000, 3289, 1))
@example(table=(8, 6, 4, 3))
def test_the_trainers_llr_is_the_oracles_bit_for_bit(table):
    """The trainer's LLR (per-item entropies plus per-training cell
    terms, summed inline per pair) is ``llr_score``'s float, zero cells,
    ``count == users`` (an entropy of ``-0.0``) and an independent table
    rounding below zero included.  A threshold of ``-inf`` keeps every
    pair, and a kept pair's weight is its negated score negated back."""
    users, count, other, both = table
    cells = (both, count - both, other - both, users - count - other + both)
    scored = cco._Scorer([count, other], users, float("inf"))
    row, column = scored.entropies
    assert row.hex() == cco_reference._entropy(count, users - count).hex()
    assert column.hex() == cco_reference._entropy(other, users - other).hex()
    kept_scores, kept_partners = scored(0, [1], [both])
    assert kept_partners == [1]
    assert (-kept_scores[0]).hex() == llr_score(*cells).hex()


def test_llr_is_scored_per_whole_contingency_table():
    """Pairs (a, b) and (a, c) share k11 and k12 and differ in k21."""
    events = [("u1", "a"), ("u1", "b"), ("u1", "c"), ("u2", "a"), ("u3", "a")]
    events += [(f"v{index}", "c") for index in range(6)]
    trainer = CcoTrainer(llr_threshold=0.0)
    model = trainer.train(events)
    assert model_in_order(model) == model_in_order(reference_train(trainer, events))
    weight = {item: dict(zip(*weighted)) for item, weighted in model.indicators.items()}
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
        indicators=packed_indicators({item: [("seen", 1.0)] for item in ("e", "d", "c", "b", "a")}),
        popularity={"c": 2, "d": 2, "a": 1},
    )
    assert model.recommend(["seen"], n=2) == ["c", "d"]
    assert model.recommend(["seen"], n=3) == ["c", "d", "a"]
    _assert_same_rankings(model, ["seen"])


def test_weights_are_summed_in_history_order_before_the_history_is_dropped():
    """.1 + .2 + .3 outranks .6; .3 + .2 + .1 ties with it and loses on id."""
    model = CcoModel(
        indicators=packed_indicators(
            {"X": [("a", 0.1), ("b", 0.2), ("c", 0.3)], "A": [("d", 0.6)], "a": [("b", 9.0)]}
        ),
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
        indicators=packed_indicators({item: [("seen", 0.0)] for item in "abcde"}),
        popularity={"e": 3, "d": 2, "c": 1},
    )
    with _toy_prefixes():
        assert model.recommend(["seen"], n=2) == ["e", "d"]
        _assert_same_rankings(model, ["seen"])


def test_a_candidate_that_scored_zero_outranks_the_popularity_fallback():
    model = CcoModel(
        indicators=packed_indicators({"quiet": [("seen", 0.0)]}), popularity={"loud": 9, "quiet": 1}
    )
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
        indicators=packed_indicators({
            "X": [("a", 0.1), ("b", 0.2), ("c", 0.3), ("e", 0.005)],
            "A": [("d", 0.6)],
            **fillers,
        }),
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
        indicators=packed_indicators({
            "X": [("a", 0.2), ("h", 0.1), ("h", 0.3)],
            "A": [("d", 0.6)],
            **{f"f{index}": [("h", 0.01)] for index in range(3)},
        })
    )
    negative = CcoModel(
        indicators=packed_indicators(
            {"a": [("h", 5.0)], "b": [("h", 4.0)], **{i: [("h", -1.0)] for i in "cde"}}
        )
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
        {"GENRE_COUNT": 1},
        {"GENRE_COUNT": 5, "GENRE_AFFINITY": 0.0},
        {"GENRE_AFFINITY": 1.0, "ZIPF_EXPONENT": 0.5},
    ],
)
def test_generated_trace_equals_the_seed_generator_off_the_defaults(shape, monkeypatch):
    """The generator's shape constants are read when a trace is built."""
    for name, value in shape.items():
        monkeypatch.setattr(movielens, name, value)
    trace = SyntheticMovieLens(seed=11, scale=0.005)
    reference = ReferenceMovieLens(
        seed=11, scale=0.005, **{name.lower(): value for name, value in shape.items()}
    )
    assert trace.events == reference.events
