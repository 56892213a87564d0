"""When a hop forwards the bytes it received, and when it encodes.

A message parsed off the wire remembers ``(codec, data)`` in
``arrived_as``; a hop that sends that very message on under the same
codec re-sends ``data`` (:meth:`WireFrame.for_message`), anything
rebuilt on the way is encoded.  The rule is only safe if it can never
change a byte, so it is pinned three ways here: every frame a wiretap
sees equals a fresh encoding of its own decoded message; the number of
frames forwarded verbatim per request is exactly what the protocol
predicts for each deployment (a hop that starts rewriting, or stops,
moves it); and nothing but the decoder and ``Request.readdressed`` can
hand the memo to another message.  The last section is the first
consequence for privacy: the IA never forwards an LRS-framed POST ack.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.context import Deployment, SimContext
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.obs.tracewire import TRACE_FIELD
from repro.overload.deadline import stamp_deadline
from repro.overload.shedding import uniform_reject
from repro.proxy import PProxConfig
from repro.proxy.epochs import stamp_epoch
from repro.rest.codec import (
    BINARY_WIRE_CODEC,
    JSON_WIRE_CODEC,
    BatchEnvelope,
    BinaryCodec,
    WireFrame,
    ship,
)
from repro.rest.header import EPOCH, TRACE, strip
from repro.rest.messages import Request, Response, Verb, make_get
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry

CODECS = ("json", "binary")
REQUESTS = 4

#: name -> (config, frames forwarded verbatim per get, per post).  A
#: passthrough hop rewrites nothing (only the client's request and the
#: LRS's response are encoded; the IA builds its own POST ack); with
#: encryption every leg rewrites except the UA's response leg, whose
#: body is opaque to it; the hardened hop re-seals that one too.
DEPLOYMENTS = {
    "m1": (PProxConfig(encryption=False, sgx=False, shuffle_size=0), 4, 3),
    "m6": (PProxConfig(shuffle_size=2, shuffle_timeout=0.05), 1, 1),
    "hardened": (
        PProxConfig(shuffle_size=2, shuffle_timeout=0.05, harden_client_hop=True), 0, 0,
    ),
}


def _deploy(config, codec, stub_type=StubLrs, seed=5):
    ctx = SimContext.fresh(seed, codec=codec)
    stub = stub_type(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=config, lrs_picker=lambda: stub)
    if config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            ctx.provider, deployment.service.provisioner.layer_keys["IA"].symmetric_key
        )
    frames = []
    ctx.network.add_wiretap(lambda record, payload: frames.append((record, payload)))
    return ctx, deployment, frames


def _drive(ctx, deployment, verb):
    client, calls = deployment.client(), []
    for index in range(REQUESTS):
        if verb == "get":
            client.get(f"user-{index}", on_complete=calls.append)
        else:
            client.post(f"user-{index}", f"item-{index}", on_complete=calls.append)
    ctx.loop.run()
    assert [call.ok for call in calls] == [True] * REQUESTS
    return calls


def _forwarded(frames):
    """Frames whose bytes are the very object an earlier frame carried."""
    seen, count = set(), 0
    for _, payload in frames:
        if isinstance(payload, WireFrame):
            count += id(payload.data) in seen
            seen.add(id(payload.data))
    return count


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("verb", ("get", "post"))
@pytest.mark.parametrize("deployment_name", sorted(DEPLOYMENTS))
def test_forwarded_frames_are_exactly_the_untouched_hops(deployment_name, verb, codec):
    config, per_get, per_post = DEPLOYMENTS[deployment_name]
    ctx, deployment, frames = _deploy(config, codec)
    _drive(ctx, deployment, verb)

    assert len(frames) >= 5 * REQUESTS
    for record, payload in frames:
        if isinstance(payload, BatchEnvelope):
            continue  # one sealed flush of the binary wire: ciphertext
        # What was on the wire is what a sender that never forwards
        # would have put there.
        rebuilt = replace(payload.decode())
        assert rebuilt.arrived_as is None
        assert bytes(payload.data) == WireFrame.for_message(payload.codec, rebuilt).data, (
            record.source_role, record.destination_role)
    assert _forwarded(frames) == REQUESTS * (per_get if verb == "get" else per_post)


def _decoded(codec, message):
    decoded = WireFrame.for_message(codec, message).decode()
    assert decoded.arrived_as[0] is codec
    return decoded


@pytest.mark.parametrize("codec", (JSON_WIRE_CODEC, BINARY_WIRE_CODEC), ids=CODECS)
def test_only_the_decoder_and_readdressed_hand_the_memo_on(codec):
    traced = make_get("alice", request_id=3).with_fields(**{TRACE_FIELD: "tw:0000000000001"})
    built = stamp_epoch(traced, 7)
    assert built.arrived_as is None
    request = _decoded(codec, built)
    data = request.arrived_as[1]

    # Forwarded as it came: the same bytes object, whoever sends it on.
    assert WireFrame.for_message(codec, request).data is data
    moved = request.readdressed("ua-0")
    assert (moved.client_address, moved.fields) == ("ua-0", request.fields)
    assert WireFrame.for_message(codec, moved).data is data
    assert built.readdressed("ua-0").arrived_as is None

    # Every rewrite, and every constructor call, drops it.
    rebuilt = [
        request.with_fields(user="bob"),
        request.with_fields(),
        replace(request),
        replace(request, request_id=4),
        stamp_deadline(request, 0.25),
        strip(request, EPOCH, TRACE)[0],
        Request(request.verb, request.fields, request.request_id, request.client_address),
    ]
    for message in rebuilt:
        assert message.arrived_as is None
        assert WireFrame.for_message(codec, message).data is not data
    with pytest.raises(TypeError):
        Request(Verb.GET, {}, 1, "c", arrived_as=(codec, data))
    with pytest.raises(ValueError):
        replace(request, arrived_as=(codec, data))

    response = _decoded(codec, Response(status=200, fields={"items": ["a", "b"]}, request_id=3))
    assert WireFrame.for_message(codec, response).data is response.arrived_as[1]
    for message in (response.with_fields(items=None), replace(response),
                    uniform_reject(response.request_id)):
        assert message.arrived_as is None
    # The memo is no part of a message's value.
    assert response == replace(response) and "arrived_as" not in repr(response)


def test_a_frame_received_under_one_codec_is_encoded_for_the_other():
    request = _decoded(JSON_WIRE_CODEC, make_get("alice", request_id=3))
    frame = WireFrame.for_message(BINARY_WIRE_CODEC, request)
    assert frame.data == BINARY_WIRE_CODEC.encode_request(replace(request))
    assert frame.data != request.arrived_as[1]
    assert _decoded(BINARY_WIRE_CODEC, request).fields == request.fields


def test_receivers_parse_forwarded_frames():
    """Forwarding saves the sender's encode, never the receiver's parse:
    a forwarded frame goes through ``decode_request`` again, and bytes
    that do not parse still fail at delivery."""
    rng = RngRegistry(seed=1)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))

    class Counting(BinaryCodec):
        decodes = 0

        def decode_request(self, data, **metadata):
            self.decodes += 1
            return super().decode_request(data, **metadata)

    codec, hops = Counting(), []

    def relay(request):
        hops.append(request)
        if len(hops) < 3:
            ship(network, codec, "a", "b", request.readdressed("a"), relay)

    ship(network, codec, "client", "a", make_get("alice", request_id=3), relay)
    loop.run()
    assert codec.decodes == len(hops) == 3
    assert len({id(request) for request in hops}) == 3
    assert len({id(request.arrived_as[1]) for request in hops}) == 1

    # Whatever carries the memo, the receiver validates the bytes.
    forged = hops[-1].readdressed("a")
    object.__setattr__(forged, "arrived_as", (codec, b"\x00\x00\x00\x04junk"))
    ship(network, codec, "a", "b", forged, relay)
    with pytest.raises(ValueError, match="magic"):
        loop.run()


# ---------------------------------------------------------------------------
# An LRS does not choose bytes on the protected hops
# ---------------------------------------------------------------------------


class TaggingLrs(StubLrs):
    """Acks the n-th post with ``100 * n`` bytes of padding: a size tag
    an LRS-side adversary could follow through the response shuffle to
    the hop where the client's address is visible."""

    def handle(self, request, reply):
        if request.verb != Verb.POST:
            return super().handle(request, reply)
        self.requests_served += 1
        tag = {"pad": "x" * (100 * self.requests_served)}
        self.node.submit(0.0005, lambda: reply(
            Response(status=200, fields=tag, request_id=request.request_id)))


@pytest.mark.parametrize("codec", CODECS)
def test_post_acks_of_a_tagging_lrs_have_one_size_and_no_lrs_field(codec):
    config = PProxConfig(shuffle_size=3, shuffle_timeout=0.05)
    ctx, deployment, frames = _deploy(config, codec, stub_type=TaggingLrs)
    client, calls = deployment.client(), []
    for index in range(3):
        client.post(f"user-{index}", f"item-{index}", on_complete=calls.append)
    ctx.loop.run()
    assert [call.ok for call in calls] == [True] * 3

    def acks(source, destination):
        return [
            payload for record, payload in frames
            if (record.source_role, record.destination_role) == (source, destination)
        ]

    # The tag is real: it reaches the IA, in three sizes.
    assert len({ack.size_bytes() for ack in acks("lrs", "ia")}) == 3
    for hop in (("ia", "ua"), ("ua", "client")):
        protected = acks(*hop)
        assert len(protected) == 3
        assert {ack.size_bytes() for ack in protected} == {
            ctx.codec.response_size_bytes(Response(status=200))
        }, hop
        assert [ack.fields for ack in protected] == [{}] * 3
    # And so nothing the LRS framed was sent on as it came.
    lrs_bytes = {id(ack.data) for ack in acks("lrs", "ia")}
    assert not lrs_bytes & {id(ack.data) for ack in acks("ia", "ua")}
