"""REST message model, wire codecs and routing primitives shared by client, proxy and LRS."""

from repro.rest.codec import (
    BinaryCodec,
    CodecError,
    JsonCodec,
    WireCodec,
    WireFrame,
    resolve_codec,
)
from repro.rest.messages import Request, Response, Verb, make_get, make_post
from repro.rest.routing import RoutingError, RoutingTable

__all__ = [
    "Request",
    "Response",
    "Verb",
    "make_get",
    "make_post",
    "WireCodec",
    "JsonCodec",
    "BinaryCodec",
    "WireFrame",
    "CodecError",
    "resolve_codec",
    "RoutingTable",
    "RoutingError",
]
