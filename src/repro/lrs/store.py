"""Document store backing the recommendation engine.

Harness persists "engine-related data and inputs pending processing
(i.e., feedback received via post requests)" in MongoDB (paper §7).
This module provides the small slice of that behaviour the engine
needs: append-only event collections with field-indexed lookup.

Crucially for the privacy analysis, the store is *readable by the
adversary* ("can access any data manipulated by the LRS", §2.3) — the
:meth:`EventStore.dump` method is exactly the adversary's view.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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


@dataclass
class EventStore:
    """Append-only feedback store with a per-user index."""

    events: List[FeedbackEvent] = field(default_factory=list)
    _by_user: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))

    def insert(self, user: str, item: str, payload: Optional[str] = None) -> FeedbackEvent:
        """Persist one feedback event."""
        event = FeedbackEvent(user=user, item=item, payload=payload, sequence=len(self.events))
        self.events.append(event)
        self._by_user[user].append(event.sequence)
        return event

    def rewrite(
        self, sequence: int, *, user: Optional[str] = None, item: Optional[str] = None
    ) -> FeedbackEvent:
        """Replace identifier columns of one stored event, in place.

        Used by the online re-key pass: the record keeps its sequence
        and payload, only the pseudonymous identifiers change, and the
        per-user index stays consistent so lookups served between re-key
        batches remain correct.
        """
        event = self.events[sequence]
        new_user = user if user is not None else event.user
        new_item = item if item is not None else event.item
        if new_user == event.user and new_item == event.item:
            return event
        updated = FeedbackEvent(
            user=new_user, item=new_item, payload=event.payload, sequence=sequence
        )
        self.events[sequence] = updated
        if new_user != event.user:
            self._move_user(event.user, new_user, sequence)
        return updated

    def _move_user(self, old_key: str, new_key: str, sequence: int) -> None:
        index = self._by_user
        entries = index.get(old_key)
        if entries is not None:
            try:
                entries.remove(sequence)
            except ValueError:
                pass
            if not entries:
                del index[old_key]
        # Insertion keeps each index list sorted by sequence (inserts
        # only ever append increasing sequences, so insort preserves
        # the "most recent last" contract of user_history).
        insort(index[new_key], sequence)

    def user_history(self, user: str, limit: Optional[int] = None) -> List[str]:
        """Items the user interacted with, most recent last; at most
        the *limit* most recent when one is given (none for ``<= 0``)."""
        indices = self._by_user.get(user, [])
        if limit is not None:
            # ``indices[-0:]`` is the whole list.
            indices = indices[-limit:] if limit > 0 else []
        return [self.events[i].item for i in indices]

    def interactions(self) -> Iterator[Tuple[str, str]]:
        """Iterate (user, item) pairs in insertion order."""
        for event in self.events:
            yield event.user, event.item

    def dump(self) -> List[FeedbackEvent]:
        """The adversary's view of the database contents."""
        return list(self.events)

    def clear(self) -> None:
        """Drop everything (breach response option 1 of footnote 1)."""
        self.events.clear()
        self._by_user.clear()

    def __len__(self) -> int:
        return len(self.events)
