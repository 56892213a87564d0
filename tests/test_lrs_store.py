"""Event store: the MongoDB-like feedback persistence layer."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.lrs.store import EventStore


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
    assert list(store.interactions()) == [("u1", "i1"), ("u2", "i2")]


def test_payload_is_stored():
    store = EventStore()
    event = store.insert("u", "i", payload="rating=5")
    assert event.payload == "rating=5"


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
    events = [store.insert("u", f"i{n}") for n in range(3)]
    assert [event.sequence for event in events] == [0, 1, 2]


def test_stored_events_are_immutable_and_carry_no_instance_dict():
    """One slotted object per event: the store holds a run's whole feedback."""
    event = EventStore().insert("u", "i", payload="p")
    assert not hasattr(event, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.user = "v"
    assert dataclasses.astuple(event) == ("u", "i", "p", 0)
    assert copy.deepcopy(event) == pickle.loads(pickle.dumps(event)) == event
