"""Document store backing the recommendation engine.

Harness persists "engine-related data and inputs pending processing
(i.e., feedback received via post requests)" in MongoDB (paper §7).
This module provides the small slice of that behaviour the engine
needs: append-only event collections with field-indexed lookup.

Crucially for the privacy analysis, the store is *readable by the
adversary* ("can access any data manipulated by the LRS", §2.3) — the
:meth:`EventStore.dump` method is exactly the adversary's view.

Identifiers are interned: the store keeps one table of the pseudonyms
its events name (each string once, numbered in first-seen order), a
user column of those numbers, and per user two ``array('i')``s, its
event sequences ascending and their item numbers, plus the payloads of
the few events that carry one.  A :class:`FeedbackEvent` is built only
when a record is read, through :meth:`EventStore.dump` or
:attr:`EventStore.events`, so a stored event costs 12 bytes, not a
slotted object and an int per index entry.  Each number counts the
column slots that hold it, and a string no event names any more is
dropped: after a re-key the table holds exactly the identifiers
:meth:`EventStore.dump` shows, never a pseudonym the pass moved away
from.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["FeedbackEvent", "EventStore"]


@dataclass(frozen=True, slots=True)
class FeedbackEvent:
    """One stored feedback record (post request as persisted).

    With PProx in front, ``user`` and ``item`` hold *pseudonymous*
    identifiers; without it, cleartext ones.
    """

    user: str
    item: str
    payload: Optional[str] = None
    sequence: int = 0


class _Events(Sequence):
    """The stored records in sequence order, read-only, built on access."""

    __slots__ = ("_store",)

    def __init__(self, store: EventStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index: Union[int, slice]) -> Union[FeedbackEvent, List[FeedbackEvent]]:
        sequences = range(len(self))[index]
        if isinstance(sequences, range):
            return list(map(self._store._event, sequences))
        return self._store._event(sequences)


class EventStore:
    """Append-only feedback store with a per-user index."""

    def __init__(self) -> None:
        #: number -> identifier, ``None`` once no event names it, and
        #: the inverse over the live ones: users and items alike.
        self._names: List[Optional[str]] = []
        self._numbers: Dict[str, int] = {}
        #: number -> the user and item slots that hold it.
        self._holds = array("i")
        #: sequence -> user number.
        self._users = array("i")
        #: sequence -> payload, for the events posted with one.
        self._payloads: Dict[int, str] = {}
        #: user number -> its event sequences, ascending, and their
        #: item numbers.
        self._by_user: Dict[int, Tuple[array, array]] = {}

    def _hold(self, name: str) -> int:
        number = self._numbers.get(name)
        if number is None:
            number = self._numbers[name] = len(self._names)
            self._names.append(name)
            self._holds.append(1)
        else:
            self._holds[number] += 1
        return number

    def _release(self, number: int) -> None:
        holds = self._holds
        holds[number] -= 1
        if not holds[number]:
            del self._numbers[self._names[number]]
            self._names[number] = None

    def _event(self, sequence: int) -> FeedbackEvent:
        sequences, items = self._by_user[self._users[sequence]]
        names = self._names
        return FeedbackEvent(
            names[self._users[sequence]],
            names[items[bisect_left(sequences, sequence)]],
            self._payloads.get(sequence),
            sequence,
        )

    @property
    def events(self) -> _Events:
        """Every stored record, in sequence order: a read-only view that
        builds each :class:`FeedbackEvent` as it is read (an index or a
        slice, which is a list)."""
        return _Events(self)

    def insert(self, user: str, item: str, payload: Optional[str] = None) -> int:
        """Persist one feedback event; returns its sequence, the index
        of its record in :attr:`events`."""
        sequence = len(self._users)
        user_number = self._hold(user)
        item_number = self._hold(item)
        self._users.append(user_number)
        if payload is not None:
            self._payloads[sequence] = payload
        entry = self._by_user.get(user_number)
        if entry is None:
            entry = self._by_user[user_number] = (array("i"), array("i"))
        entry[0].append(sequence)
        entry[1].append(item_number)
        return sequence

    def translate(self, sequence: int, column: str, translate: Callable[[str], str]) -> None:
        """Replace one stored event's ``"user"`` or ``"item"`` with
        ``translate(old)``, in place.

        Used by the online re-key pass, row by row: the column is read
        and rewritten with no record built and one search of the user's
        sequences, the record keeps its sequence and payload, and the
        per-user index stays consistent so lookups served between re-key
        batches remain correct.  An identifier no event names any more
        is forgotten.
        """
        old_user = self._users[sequence]
        sequences, items = self._by_user[old_user]
        position = bisect_left(sequences, sequence)
        # Hold the new number before releasing the old: a rewrite onto
        # the same identifier never drops it.
        if column == "item":
            old_item = items[position]
            items[position] = self._hold(translate(self._names[old_item]))
            self._release(old_item)
            return
        new_user = self._hold(translate(self._names[old_user]))
        self._release(old_user)
        if new_user == old_user:
            return
        self._users[sequence] = new_user
        del sequences[position]
        item_number = items.pop(position)
        if not sequences:
            del self._by_user[old_user]
        entry = self._by_user.get(new_user)
        if entry is None:
            entry = self._by_user[new_user] = (array("i"), array("i"))
        # Inserts only ever append increasing sequences, so each user's
        # stay ascending: the "most recent last" of user_history.
        position = bisect_left(entry[0], sequence)
        entry[0].insert(position, sequence)
        entry[1].insert(position, item_number)

    def user_history(self, user: str, limit: Optional[int] = None) -> List[str]:
        """Items the user interacted with, most recent last; at most
        the *limit* most recent when one is given (none for ``<= 0``)."""
        entry = self._by_user.get(self._numbers.get(user))
        if entry is None:
            return []
        items = entry[1]
        if limit is not None:
            # ``items[-0:]`` is the whole array.
            items = items[-limit:] if limit > 0 else ()
        return list(map(self._names.__getitem__, items))

    def item_histories(self) -> Tuple[List[Optional[str]], List[array]]:
        """The number -> identifier table, and each user's item numbers
        in sequence order, users in the order of their first event (a
        re-key can move a user to a later index slot): the store as a
        trainer reads it, no string per event."""
        by_first = sorted(self._by_user.values(), key=lambda entry: entry[0][0])
        return self._names, [items for _, items in by_first]

    def dump(self) -> List[FeedbackEvent]:
        """The adversary's view of the database contents."""
        return self.events[:]

    def clear(self) -> None:
        """Drop everything (breach response option 1 of footnote 1)."""
        self._names.clear()
        self._numbers.clear()
        del self._holds[:]
        del self._users[:]
        self._payloads.clear()
        self._by_user.clear()

    def __len__(self) -> int:
        return len(self._users)
