"""The feedback store as it stood before its identifiers were interned.

A reference tests (and ``benchmarks/run_lrs_bench.py``) compare
:class:`repro.lrs.store.EventStore` against, not product code: one
frozen :class:`~repro.lrs.store.FeedbackEvent` per post in a list, a
new one built by every rewrite, and a per-user list of sequences.  The
body is the seed's; only the name changed, and ``insert`` returns the
sequence, as the product's does.  Do not optimize it.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.lrs.store import FeedbackEvent

__all__ = ["ReferenceEventStore"]


@dataclass
class ReferenceEventStore:
    """Append-only feedback store with a per-user index."""

    events: List[FeedbackEvent] = field(default_factory=list)
    _by_user: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))

    def insert(self, user: str, item: str, payload: Optional[str] = None) -> int:
        event = FeedbackEvent(user=user, item=item, payload=payload, sequence=len(self.events))
        self.events.append(event)
        self._by_user[user].append(event.sequence)
        return event.sequence

    def rewrite(self, sequence: int, *, user: Optional[str] = None,
                item: Optional[str] = None) -> None:
        event = self.events[sequence]
        new_user = user if user is not None else event.user
        new_item = item if item is not None else event.item
        if new_user == event.user and new_item == event.item:
            return
        self.events[sequence] = FeedbackEvent(
            user=new_user, item=new_item, payload=event.payload, sequence=sequence
        )
        if new_user != event.user:
            entries = self._by_user.get(event.user)
            if entries is not None:
                try:
                    entries.remove(sequence)
                except ValueError:
                    pass
                if not entries:
                    del self._by_user[event.user]
            insort(self._by_user[new_user], sequence)

    def user_history(self, user: str, limit: Optional[int] = None) -> List[str]:
        indices = self._by_user.get(user, [])
        if limit is not None:
            indices = indices[-limit:] if limit > 0 else []
        return [self.events[i].item for i in indices]

    def dump(self) -> List[FeedbackEvent]:
        return list(self.events)

    def clear(self) -> None:
        self.events.clear()
        self._by_user.clear()

    def __len__(self) -> int:
        return len(self.events)
