"""The routing table T of the proxy server (paper §5).

Each proxy layer "maintains a table T storing the association between
an inbound socket I (from the user-side library or from another proxy)
and an outbound socket O (to another proxy or to the LRS)".  Responses
from the LRS are forwarded backward using the same path as the
incoming request.

We key entries by the outbound request id (the analogue of the
outbound file descriptor the real implementation looks up when
``epoll()`` raises an event), and store whatever per-request context
the layer needs to route and post-process the response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generic, Optional, TypeVar

__all__ = ["RoutingTable", "RoutingError"]

ContextT = TypeVar("ContextT")


class RoutingError(KeyError):
    """Raised on lookups of unknown or already-consumed routes."""


@dataclass
class RoutingTable(Generic[ContextT]):
    """Pending-request table mapping outbound ids to inbound context."""

    name: str = "T"
    _entries: Dict[int, ContextT] = field(default_factory=dict)
    max_size: int = 0
    total_registered: int = 0

    def register(self, outbound_id: int, context: ContextT) -> None:
        """Record that *outbound_id*'s response must return to *context*."""
        if outbound_id in self._entries:
            raise RoutingError(f"duplicate outbound id {outbound_id} in table {self.name!r}")
        self._entries[outbound_id] = context
        self.total_registered += 1
        if len(self._entries) > self.max_size:
            self.max_size = len(self._entries)

    def consume(self, outbound_id: int) -> ContextT:
        """Pop and return the context for *outbound_id*."""
        try:
            return self._entries.pop(outbound_id)
        except KeyError:
            raise RoutingError(
                f"no pending route for outbound id {outbound_id} in table {self.name!r}"
            ) from None

    def peek(self, outbound_id: int) -> Optional[ContextT]:
        """Return the context without consuming it (None if absent)."""
        return self._entries.get(outbound_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outbound_id: int) -> bool:
        return outbound_id in self._entries
