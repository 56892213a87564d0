"""REST message model and the routing table T."""

from __future__ import annotations

import dataclasses

import pytest

from repro.rest.messages import Request, Response, Verb
from repro.rest.routing import RoutingError, RoutingTable
from tests.conftest import make_get, make_post


def test_make_post_fields():
    request = make_post("u1", "i1", client_address="client-u1")
    assert request.verb == Verb.POST
    assert request.fields == {"user": "u1", "item": "i1"}
    assert request.client_address == "client-u1"


def test_make_post_with_payload():
    request = make_post("u1", "i1", payload="5-stars")
    assert request.fields["payload"] == "5-stars"


def test_make_get_with_extra_fields():
    request = make_get("u1", tmpkey="abc")
    assert request.verb == Verb.GET
    assert request.fields == {"user": "u1", "tmpkey": "abc"}


def test_with_fields_replaces_and_removes():
    request = make_get("u1", tmpkey="abc")
    updated = request.with_fields(user="pseudo", tmpkey=None)
    assert updated.fields == {"user": "pseudo"}
    assert updated.request_id == request.request_id
    # original untouched (frozen semantics)
    assert request.fields["tmpkey"] == "abc"


def test_body_json_is_canonical():
    one = Request(verb="POST", fields={"b": 1, "a": 2}, request_id=1, client_address="c")
    two = Request(verb="POST", fields={"a": 2, "b": 1}, request_id=2, client_address="c")
    assert one.body_json() == two.body_json()


def test_size_depends_only_on_fields():
    one = make_post("u1", "i1", request_id=1)
    two = make_post("u1", "i1", request_id=999)
    assert one.size_bytes() == two.size_bytes()


def test_response_ok_range():
    assert Response(status=200).ok
    assert Response(status=204).ok
    assert not Response(status=404).ok
    assert not Response(status=500).ok


def test_response_with_fields():
    response = Response(status=200, fields={"items": ["a"]})
    updated = response.with_fields(blob="x", items=None)
    assert updated.fields == {"blob": "x"}


@pytest.mark.parametrize("message", [
    Request(verb="GET", fields={"user": "u1", "tmpkey": "abc"}, request_id=7, client_address="c-1"),
    Response(status=503, fields={"items": ["a"], "blob": "b"}, request_id=7),
], ids=["request", "response"])
def test_with_fields_builds_what_replace_builds_and_drops_arrived_as(message):
    """``with_fields`` builds its copy with one constructor call: every
    field equal to what ``dataclasses.replace`` gives, and no
    ``arrived_as`` (the copy was not parsed from those bytes)."""
    object.__setattr__(message, "arrived_as", ("codec", b"frame"))
    updated = message.with_fields(blob="x", tmpkey=None)
    fields = {key: value for key, value in message.fields.items() if key != "tmpkey"}
    expected = dataclasses.replace(message, fields={**fields, "blob": "x"})
    assert type(updated) is type(message)
    for field in dataclasses.fields(message):
        assert getattr(updated, field.name) == getattr(expected, field.name), field.name
    assert updated.arrived_as is None and expected.arrived_as is None
    assert message.arrived_as == ("codec", b"frame")


def test_routing_register_and_consume():
    table: RoutingTable = RoutingTable()
    table.register(1, "ctx-1")
    table.register(2, "ctx-2")
    assert table.consume(1) == "ctx-1"
    assert 1 not in table
    assert len(table) == 1


def test_routing_duplicate_rejected():
    table: RoutingTable = RoutingTable()
    table.register(1, "a")
    with pytest.raises(RoutingError, match="duplicate"):
        table.register(1, "b")


def test_routing_unknown_consume_rejected():
    with pytest.raises(RoutingError, match="no pending route"):
        RoutingTable().consume(42)


def test_routing_stats():
    table: RoutingTable = RoutingTable()
    for index in range(5):
        table.register(index, index)
    for index in range(3):
        table.consume(index)
    assert table.max_size == 5
    assert table.total_registered == 5
