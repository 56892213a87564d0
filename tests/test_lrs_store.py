"""Event store: the MongoDB-like feedback persistence layer."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lrs.cco import CcoTrainer
from repro.lrs.store import EventStore, FeedbackEvent
from tests.oracles.cco_reference import model_in_order, reference_train
from tests.oracles.store_reference import ReferenceEventStore


def test_insert_and_history():
    store = EventStore()
    store.insert("u1", "i1")
    store.insert("u1", "i2")
    store.insert("u2", "i1")
    assert store.user_history("u1") == ["i1", "i2"]
    assert store.user_history("u2") == ["i1"]


def test_history_limit_keeps_most_recent():
    store = EventStore()
    for index in range(10):
        store.insert("u", f"i{index}")
    assert store.user_history("u", limit=3) == ["i7", "i8", "i9"]


@pytest.mark.parametrize("limit", [0, -1])
def test_history_limit_of_nothing_is_nothing(limit):
    """``indices[-0:]`` is the whole list: a limit of 0 must not be."""
    store = EventStore()
    for index in range(10):
        store.insert("u", f"i{index}")
    assert store.user_history("u", limit=limit) == []


def test_unknown_user_has_empty_history():
    assert EventStore().user_history("ghost") == []


def test_interactions_iterates_in_insertion_order():
    store = EventStore()
    store.insert("u1", "i1")
    store.insert("u2", "i2")
    assert [(event.user, event.item) for event in store.events] == [("u1", "i1"), ("u2", "i2")]


def test_payload_is_stored():
    store = EventStore()
    sequence = store.insert("u", "i", payload="rating=5")
    assert store.events[sequence].payload == "rating=5"


def test_dump_is_the_adversary_view():
    store = EventStore()
    store.insert("pseudo-u", "pseudo-i")
    dump = store.dump()
    assert len(dump) == 1
    assert dump[0].user == "pseudo-u"
    # Dump is a copy: mutating it does not affect the store.
    dump.clear()
    assert len(store) == 1


def test_clear_resets_everything():
    store = EventStore()
    store.insert("u", "i")
    store.clear()
    assert len(store) == 0
    assert store.user_history("u") == []


def test_sequence_numbers_are_monotonic():
    store = EventStore()
    sequences = [store.insert("u", f"i{n}") for n in range(3)]
    assert sequences == [event.sequence for event in store.events] == [0, 1, 2]


def test_stored_events_are_immutable_and_carry_no_instance_dict():
    """A record read from the store is frozen and slotted."""
    store = EventStore()
    event = store.events[store.insert("u", "i", payload="p")]
    assert not hasattr(event, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.user = "v"
    assert dataclasses.astuple(event) == ("u", "i", "p", 0)
    assert copy.deepcopy(event) == pickle.loads(pickle.dumps(event)) == event


# -- the interned store against the seed's list of records -------------

#: Users and items drawn from one small pool, so a rewrite often lands
#: on a pseudonym the store already holds (as user or as item).
NAMES = ["p0", "p1", "p2", "p3", "p4", "p5"]
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(NAMES), st.sampled_from(NAMES),
                  st.sampled_from([None, "rating=5", ""])),
        st.tuples(st.just("rewrite"), st.integers(0, 40), st.sampled_from([None, *NAMES]),
                  st.sampled_from([None, *NAMES])),
    ),
    max_size=40,
)


def interned_names(store):
    """The identifiers the store's intern table holds."""
    live = [name for name in store._names if name is not None]
    assert sorted(live) == sorted(store._numbers)
    return set(live)


def named_in(dump):
    return {event.user for event in dump} | {event.item for event in dump}


def _assert_same(store, seed):
    assert store.dump() == seed.dump()
    assert interned_names(store) == named_in(seed.dump())
    assert len(store) == len(store.events) == len(seed)
    for sequence, event in enumerate(seed.dump()):
        assert store.identifier(sequence, "user") == event.user
        assert store.identifier(sequence, "item") == event.item
    for user in NAMES + ["ghost"]:
        for limit in (None, 0, 1, 3):
            assert store.user_history(user, limit=limit) == seed.user_history(user, limit=limit)


@settings(max_examples=150, deadline=None)
@given(script=operations)
def test_store_answers_what_the_seeds_list_of_records_answers(script):
    store, seed = EventStore(), ReferenceEventStore()
    for operation in script:
        if operation[0] == "insert":
            assert store.insert(*operation[1:]) == seed.insert(*operation[1:])
        elif operation[1] < len(seed):
            store.rewrite(operation[1], user=operation[2], item=operation[3])
            seed.rewrite(operation[1], user=operation[2], item=operation[3])
        _assert_same(store, seed)
    pairs = [(event.user, event.item) for event in seed.events]
    trainer = CcoTrainer(max_history=3, max_indicators=2, llr_threshold=0.0)
    assert model_in_order(trainer.train(store)) == model_in_order(reference_train(trainer, pairs))


def test_dump_is_every_record_in_order_with_payloads_and_sequences():
    store = EventStore()
    store.insert("u1", "i1", payload="rating=4")
    store.insert("u2", "i1")
    store.insert("u1", "i2", payload="")
    assert store.dump() == [
        FeedbackEvent("u1", "i1", "rating=4", 0),
        FeedbackEvent("u2", "i1", None, 1),
        FeedbackEvent("u1", "i2", "", 2),
    ]


def test_events_is_a_read_only_sequence_that_slices():
    store = EventStore()
    for index in range(5):
        store.insert(f"u{index % 2}", f"i{index}")
    events = store.events
    assert events[3:] == store.dump()[3:]
    assert [event.sequence for event in events[-2:]] == [3, 4]
    assert [event.sequence for event in events[::2]] == [0, 2, 4]
    assert events[5:] == []
    assert events[-1] == events[4] == FeedbackEvent("u0", "i4", None, 4)
    with pytest.raises(IndexError):
        events[5]
    with pytest.raises(TypeError):
        events[0] = events[1]


def test_history_limit_none_zero_and_n():
    store = EventStore()
    for index in range(4):
        store.insert("u", f"i{index}")
    assert store.user_history("u") == store.user_history("u", limit=None) == ["i0", "i1", "i2", "i3"]
    assert store.user_history("u", limit=0) == []
    assert store.user_history("u", limit=2) == ["i2", "i3"]
    assert store.user_history("u", limit=9) == ["i0", "i1", "i2", "i3"]


def test_rewrite_between_batches_onto_a_held_pseudonym():
    """A re-key pass part-way: rows moved onto a pseudonym the store
    already holds merge into its history in sequence order, and the
    users a trainer reads stay in the order of their first event."""
    store = EventStore()
    store.insert("old-a", "i1")  # 0
    store.insert("b", "i2")  # 1
    store.insert("old-a", "i3")  # 2
    store.insert("b", "i4")  # 3
    store.rewrite(2, user="b")
    assert store.user_history("b") == ["i2", "i3", "i4"]
    assert store.user_history("old-a") == ["i1"]
    store.rewrite(0, user="new-a", item="i1x")
    assert store.user_history("old-a") == []
    assert store.user_history("new-a") == ["i1x"]
    assert [(event.user, event.item) for event in store.events] == [
        ("new-a", "i1x"), ("b", "i2"), ("b", "i3"), ("b", "i4")
    ]
    table, histories = store.item_histories()
    assert [[table[item] for item in history] for history in histories] == [
        ["i1x"], ["i2", "i3", "i4"]
    ]


def test_a_pseudonym_no_row_names_is_forgotten():
    """A re-key must not leave the old pseudonyms readable beside the
    new ones: the table keeps exactly what ``dump()`` shows."""
    store = EventStore()
    store.insert("old-a", "i1")  # 0
    store.insert("old-a", "i2")  # 1
    store.insert("i1", "old-a")  # 2: one string as user and as item
    store.rewrite(0, user="new-a")
    assert interned_names(store) == {"old-a", "new-a", "i1", "i2"}
    store.rewrite(1, user="new-a", item="i2")
    store.rewrite(1, item="i2x")
    assert interned_names(store) == {"old-a", "new-a", "i1", "i2x"}
    store.rewrite(2, item="new-a")
    assert interned_names(store) == named_in(store.dump()) == {"new-a", "i1", "i2x"}
    assert store.user_history("old-a") == []
    # A forgotten pseudonym posted again is numbered afresh.
    sequence = store.insert("old-a", "i1")
    assert store.events[sequence] == FeedbackEvent("old-a", "i1", None, 3)
    assert store.user_history("old-a") == ["i1"]


def test_clear_forgets_pseudonyms_and_numbers_afresh():
    store = EventStore()
    store.insert("u", "i", payload="p")
    store.clear()
    assert store.dump() == [] and list(store.events) == []
    assert store.insert("v", "j") == 0
    assert store.dump() == [FeedbackEvent("v", "j", None, 0)]
    assert store.user_history("u") == []
    table, histories = store.item_histories()
    assert table == ["v", "j"] and [list(history) for history in histories] == [[1]]
