"""REST message model for the LRS API and its proxied forms.

The LRS exposes exactly two calls (paper §2.1):

* ``post(u, i[, p])`` — insert feedback from user *u* about item *i*
  with optional payload *p*;
* ``get(u)`` — return a collection of recommended items for *u*.

The user-side library and the two proxy layers rewrite the *fields* of
these calls (never the method) as they travel; the adversary observing
the wire sees only JSON with base64 blobs of constant size.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

__all__ = ["Request", "Response", "Verb", "make_get", "make_post", "next_request_id"]

_REQUEST_IDS = itertools.count(1)


def next_request_id() -> int:
    """Allocate a request id from the process-wide counter.

    The counter leaks across runs in one process, so ids drawn here
    only promise to be unique, not reproducible: :class:`PProxClient
    <repro.client.library.PProxClient>` allocates from
    :meth:`repro.context.SimContext.next_request_id` (a per-context
    counter) instead.  This one serves :func:`make_get` /
    :func:`make_post` callers that pass no id (the direct baseline
    client, hand-built test messages).
    """
    return next(_REQUEST_IDS)


class Verb:
    """The two verbs of the LRS REST API."""

    POST = "POST"
    GET = "GET"


@dataclass(frozen=True)
class Request:
    """An in-flight API request.

    ``request_id`` and ``client_address`` exist for the simulator and
    the adversary-model bookkeeping; they are *not* serialized into
    the JSON body (the adversary sees source addresses from the flow
    records, and never sees request ids at all).
    """

    verb: str
    fields: Dict[str, Any]
    request_id: int
    client_address: str

    def with_fields(self, **updates: Any) -> "Request":
        """Copy of this request with *updates* applied to its fields."""
        new_fields = dict(self.fields)
        for key, value in updates.items():
            if value is None:
                new_fields.pop(key, None)
            else:
                new_fields[key] = value
        return replace(self, fields=new_fields)

    def body_json(self) -> str:
        """Serialize the JSON body as it would appear on the wire."""
        return json.dumps(self.fields, sort_keys=True, separators=(",", ":"))

    def size_bytes(self) -> int:
        """Wire size: request line + JSON body."""
        return 32 + len(self.body_json().encode("utf-8"))


@dataclass(frozen=True)
class Response:
    """An API response travelling the reverse path of its request."""

    status: int
    fields: Dict[str, Any] = field(default_factory=dict)
    request_id: int = 0

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def with_fields(self, **updates: Any) -> "Response":
        """Copy of this response with *updates* applied to its fields."""
        new_fields = dict(self.fields)
        for key, value in updates.items():
            if value is None:
                new_fields.pop(key, None)
            else:
                new_fields[key] = value
        return replace(self, fields=new_fields)

    def body_json(self) -> str:
        """Serialize the JSON body as it would appear on the wire."""
        return json.dumps(self.fields, sort_keys=True, separators=(",", ":"))

    def size_bytes(self) -> int:
        """Wire size: status line + JSON body."""
        return 20 + len(self.body_json().encode("utf-8"))


def make_post(user_field: Any, item_field: Any, payload: Optional[Any] = None,
              client_address: str = "client", request_id: Optional[int] = None) -> Request:
    """Build a post(u, i[, p]) request."""
    fields: Dict[str, Any] = {"user": user_field, "item": item_field}
    if payload is not None:
        fields["payload"] = payload
    return Request(
        verb=Verb.POST,
        fields=fields,
        request_id=request_id if request_id is not None else next_request_id(),
        client_address=client_address,
    )


def make_get(user_field: Any, client_address: str = "client",
             request_id: Optional[int] = None, **extra: Any) -> Request:
    """Build a get(u) request (extra fields carry the encrypted k_u)."""
    fields: Dict[str, Any] = {"user": user_field}
    fields.update(extra)
    return Request(
        verb=Verb.GET,
        fields=fields,
        request_id=request_id if request_id is not None else next_request_id(),
        client_address=client_address,
    )
