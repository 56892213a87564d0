"""Harness service model and the nginx stub."""

from __future__ import annotations

import pytest

from repro.lrs.service import HarnessService, frontend_seconds
from repro.lrs.stub import STATIC_ITEMS, StubLrs
from repro.rest.messages import Verb
from repro.simnet.clock import EventLoop
from repro.simnet.rng import RngRegistry
from tests.conftest import make_get, make_post


@pytest.fixture
def harness():
    loop = EventLoop()
    rng = RngRegistry(seed=2)
    service = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    return loop, service


def test_deployment_shape(harness):
    _, service = harness
    assert len(service.frontends) == 3


def test_post_persists_event(harness):
    loop, service = harness
    responses = []
    frontend = service.pick_frontend()
    frontend.handle(make_post("u1", "i1"), responses.append)
    loop.run()
    assert responses[0].ok
    assert service.engine.event_count == 1


def test_get_returns_recommendations_after_training(harness):
    loop, service = harness
    service.engine.trainer.llr_threshold = 0.0
    for user, item in [("a", "i1"), ("a", "i2"), ("b", "i1"), ("b", "i3")]:
        service.pick_frontend().handle(make_post(user, item), lambda r: None)
    loop.run()
    service.train()
    responses = []
    service.pick_frontend().handle(make_get("a"), responses.append)
    loop.run()
    assert responses[0].ok
    assert "i3" in responses[0].fields["items"]


def test_post_missing_fields_is_bad_request(harness):
    loop, service = harness
    responses = []
    request = make_post("u1", "i1").with_fields(item=None)
    service.pick_frontend().handle(request, responses.append)
    loop.run()
    assert responses[0].status == 400


def test_get_missing_user_is_bad_request(harness):
    loop, service = harness
    responses = []
    request = make_get("u").with_fields(user=None)
    service.pick_frontend().handle(request, responses.append)
    loop.run()
    assert responses[0].status == 400


def test_service_time_is_charged(harness):
    loop, service = harness
    done = []
    service.pick_frontend().handle(make_get("u"), lambda r: done.append(loop.now))
    loop.run()
    assert done[0] > 0.001  # frontend + support work


def test_add_frontend_scales_out(harness):
    _, service = harness
    service.add_frontend()
    assert len(service.frontends) == 4


def test_cost_model_gets_cost_more_than_posts():
    rng = RngRegistry(seed=3).stream("t")
    gets = sum(frontend_seconds(Verb.GET, rng) for _ in range(200))
    posts = sum(frontend_seconds(Verb.POST, rng) for _ in range(200))
    assert gets > posts


def test_frontends_share_one_engine(harness):
    loop, service = harness
    service.frontends[0].handle(make_post("u", "i1"), lambda r: None)
    service.frontends[1].handle(make_post("u", "i2"), lambda r: None)
    loop.run()
    assert service.engine.event_count == 2


# -- stub ---------------------------------------------------------------


def test_stub_serves_static_payload():
    loop = EventLoop()
    stub = StubLrs(loop=loop, rng=RngRegistry(seed=4).stream("stub"))
    responses = []
    stub.handle(make_get("anyone"), responses.append)
    loop.run()
    assert responses[0].fields["items"] == STATIC_ITEMS


def test_stub_post_returns_empty_ok():
    loop = EventLoop()
    stub = StubLrs(loop=loop, rng=RngRegistry(seed=4).stream("stub"))
    responses = []
    stub.handle(make_post("u", "i"), responses.append)
    loop.run()
    assert responses[0].ok
    assert responses[0].fields == {}


def test_stub_is_fast():
    """Median direct latency ~1-2 ms (paper §8.1)."""
    loop = EventLoop()
    stub = StubLrs(loop=loop, rng=RngRegistry(seed=4).stream("stub"))
    times = []
    for _ in range(100):
        start = loop.now
        stub.handle(make_get("u"), lambda r, s=start: times.append(loop.now - s))
        loop.run()
    times.sort()
    assert times[50] < 0.002


def test_stub_payload_is_replaceable():
    loop = EventLoop()
    stub = StubLrs(loop=loop, rng=RngRegistry(seed=4).stream("stub"))
    stub.items = ["custom-1"]
    responses = []
    stub.handle(make_get("u"), responses.append)
    loop.run()
    assert responses[0].fields["items"] == ["custom-1"]
