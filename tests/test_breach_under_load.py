"""Key rotation / breach response while requests are in flight.

Rotating a layer's keys invalidates every request already encrypted
under the old material.  The instances must not crash on those: the
stale-key decrypt failure becomes a retryable 503, the client retries
with the (live-refreshed) new material, and the run ends with every
call settled.
"""

from __future__ import annotations

import dataclasses

from repro.context import Deployment, SimContext
from repro.crypto.keys import KeyFactory
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig

CONFIG = PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2)


def _stack(seed=77):
    ctx = SimContext.fresh(seed)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=CONFIG, lrs_picker=lambda: stub)
    stub.items = make_pseudonymous_payload(
        ctx.resolved_provider(),
        deployment.service.provisioner.layer_keys["IA"].symmetric_key,
    )
    return ctx, stub, deployment


def _factory(ctx, name="rotate"):
    return KeyFactory(rng_bytes=ctx.rng.bytes_fn(name))


def test_rotate_ua_under_inflight_load_does_not_crash():
    ctx, _, deployment = _stack()
    service = deployment.service
    client = deployment.client(request_timeout=0.5, max_retries=3)
    results = []
    for _ in range(10):
        client.get("alice", on_complete=results.append)
    # Rotate while those requests are still on the wire / in queues.
    ctx.loop.schedule(0.0005, lambda: service.rotate_layer("UA", _factory(ctx)))
    ctx.loop.run()

    assert len(results) == 10  # every call settled, none hung
    assert all(instance.alive for instance in service.ua_instances)
    # In-flight requests sealed under the retired key surfaced as
    # transform errors, not crashes...
    total_errors = sum(i.transform_errors for i in service.ua_instances)
    assert total_errors > 0
    # ...which the client saw as retryable and re-issued with the new
    # material (client_material reads live from the service).
    assert client.retryable_errors > 0
    assert any(r.ok for r in results)


def test_rotate_ia_under_inflight_load_does_not_crash():
    ctx, stub, deployment = _stack(seed=78)
    service = deployment.service

    def rotate() -> None:
        service.rotate_layer("IA", _factory(ctx))
        # New IA key: the stub's pseudonymous payload must follow (the
        # paper's breach response re-captures the LRS content).
        stub.items = make_pseudonymous_payload(
            ctx.resolved_provider(),
            service.provisioner.layer_keys["IA"].symmetric_key,
        )

    client = deployment.client(request_timeout=0.5, max_retries=3)
    results = []
    for _ in range(10):
        client.get("bob", on_complete=results.append)
    ctx.loop.schedule(0.0005, rotate)
    ctx.loop.run()

    assert len(results) == 10
    assert all(instance.alive for instance in service.ia_instances)
    # Late traffic (encrypted after rotation) must succeed again.
    late = []
    client.get("bob", on_complete=late.append)
    ctx.loop.run()
    assert late[0].ok


def test_stale_client_material_fails_retryably_not_fatally():
    ctx, _, deployment = _stack(seed=79)
    service = deployment.service
    frozen = service.client_material  # snapshot before rotation
    stale_client = deployment.client(request_timeout=0.5, max_retries=2)
    stale_client.material = frozen
    service.rotate_layer("UA", _factory(ctx))

    results = []
    for _ in range(5):
        stale_client.get("carol", on_complete=results.append)
    ctx.loop.run()

    assert len(results) == 5
    assert all(not r.ok for r in results)  # stale keys cannot succeed...
    assert all(instance.alive for instance in service.ua_instances)  # ...but nothing died
    assert stale_client.retryable_errors > 0
    assert stale_client.outcomes["failed"] == 5


def test_breach_response_under_load_settles_every_call():
    ctx, stub, deployment = _stack(seed=80)
    service = deployment.service
    client = deployment.client(request_timeout=0.5, max_retries=3)
    results = []
    for _ in range(8):
        client.get("dave", on_complete=results.append)
    ctx.loop.schedule(
        0.0005,
        lambda: service.breach_response("IA", _factory(ctx), lrs_store=stub.items),
    )
    ctx.loop.run()
    assert len(results) == 8
    assert stub.items == []  # the store was dropped with the old keys
    assert all(instance.alive for instance in service.ia_instances)
