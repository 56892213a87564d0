"""REST message model for the LRS API and its proxied forms.

The LRS exposes exactly two calls (paper §2.1):

* ``post(u, i[, p])`` — insert feedback from user *u* about item *i*
  with optional payload *p*;
* ``get(u)`` — return a collection of recommended items for *u*.

The user-side library and the two proxy layers rewrite the *fields* of
these calls (never the method) as they travel; the adversary observing
the wire sees only JSON with base64 blobs of constant size.

Messages are values: nothing mutates ``fields`` in place, every rewrite
goes through a constructor, :meth:`with_fields` or
``dataclasses.replace``.  That is what lets a hop that did *not*
rewrite a message forward the bytes it arrived in.  ``arrived_as`` —
``(codec, data)``, attached by :meth:`repro.rest.codec.WireFrame.decode`
and by nobody else — is declared ``init=False, compare=False``, so
every one of those rewrites drops it: a message that still carries it
is, by construction, the message that was parsed from ``data``.  The
one construction that keeps it is :meth:`Request.readdressed`, because
the source address is not part of the body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from json import JSONEncoder
from typing import Any, Dict, Optional, Tuple

__all__ = ["Request", "Response", "Verb", "make_get", "make_post", "next_request_id"]

_REQUEST_IDS = itertools.count(1)

#: The one compact, key-sorted encoder behind every JSON body and every
#: JSON-typed binary field (``json.dumps`` with these options builds a
#: fresh ``JSONEncoder`` per call).
encode_compact_json = JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def next_request_id() -> int:
    """Allocate a request id from the process-wide counter.

    The counter leaks across runs in one process, so ids drawn here
    only promise to be unique, not reproducible: :class:`PProxClient
    <repro.client.library.PProxClient>` allocates from
    :meth:`repro.context.SimContext.next_request_id` (a per-context
    counter) and :class:`DirectClient
    <repro.client.library.DirectClient>` from a per-client one.  This
    one serves :func:`make_get` / :func:`make_post` callers that pass
    no id (hand-built test messages).
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
    #: ``(codec, data)`` of the frame this request was decoded from;
    #: ``None`` on every message built any other way (module docstring).
    arrived_as: Optional[Tuple[Any, bytes]] = field(
        default=None, init=False, compare=False, repr=False)

    def readdressed(self, address: str) -> "Request":
        """This request, body untouched, sent on from *address*.

        What a proxy layer does to hide the origin (§3: the next hop
        must only ever see the proxy as the source).  The address rides
        out-of-band, so the body bytes this request arrived in — if it
        still carries them — are exactly what the next hop must get.
        """
        moved = Request(self.verb, self.fields, self.request_id, address)
        if self.arrived_as is not None:
            object.__setattr__(moved, "arrived_as", self.arrived_as)
        return moved

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
        return encode_compact_json(self.fields)

    def size_bytes(self) -> int:
        """Wire size: request line + JSON body."""
        return 32 + len(self.body_json().encode("utf-8"))


@dataclass(frozen=True)
class Response:
    """An API response travelling the reverse path of its request."""

    status: int
    fields: Dict[str, Any] = field(default_factory=dict)
    request_id: int = 0
    #: ``(codec, data)`` of the frame this response was decoded from;
    #: ``None`` on every message built any other way (module docstring).
    arrived_as: Optional[Tuple[Any, bytes]] = field(
        default=None, init=False, compare=False, repr=False)

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
        return encode_compact_json(self.fields)

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
