"""Causal-trace wire field tests: fixed-width codec, severing at the
UA boundary, the wire auditor, and the redaction boundary's trace-id
identifier class."""

import pytest

from repro.obs.causal import CausalTracer
from repro.obs.tracewire import (
    TRACE_FIELD,
    TRACE_PREFIX,
    TRACE_WIDTH,
    decode_trace,
    encode_trace_id,
    looks_like_trace_id,
    stamp_trace,
)
from repro.privacy.adversary import ObservedMessage
from repro.privacy.wire import trace_field_exposures
from repro.rest.header import TRACE, strip
from repro.rest.messages import Request
from repro.telemetry import EventLog, RedactionPolicy


def make_request(**fields):
    return Request(verb="GET", fields=fields, request_id=1, client_address="client-user-1")


# -- codec ---------------------------------------------------------------


def test_encode_is_fixed_width_for_any_serial():
    for serial in (0, 1, 7, 10**6, 16**13 - 1, 16**13):
        encoded = encode_trace_id(serial)
        assert len(encoded) == TRACE_WIDTH
        assert encoded.startswith(TRACE_PREFIX)
        assert looks_like_trace_id(encoded)


def test_encode_rejects_negative_serials():
    with pytest.raises(ValueError):
        encode_trace_id(-1)


def test_looks_like_trace_id_rejects_malformed_values():
    good = encode_trace_id(3)
    assert looks_like_trace_id(good)
    assert not looks_like_trace_id(good + "0")  # too wide
    assert not looks_like_trace_id(good[:-1])  # too narrow
    assert not looks_like_trace_id(good[:-1] + "G")  # non-hex digit
    assert not looks_like_trace_id("xx" + good[2:])  # wrong prefix
    assert not looks_like_trace_id(None)
    assert not looks_like_trace_id(12345)


@pytest.mark.parametrize("near_miss", [
    "tw:00000000000AB",  # upper-case hex
    "tw:000000000000A",
    "TW:0000000000003",  # upper-case prefix
    "tw:000000000003",  # 15 characters
    "tw:00000000000003",  # 17 characters
    "tw:000000000000\u0663",  # ARABIC-INDIC DIGIT THREE: str.isdigit() says yes
    "tw:000000000000\uff13",  # FULLWIDTH DIGIT THREE: int(..., 16) says yes
    "tw:000000000000\uff41",  # FULLWIDTH LATIN SMALL LETTER A
    "tw:0000000000003\n",  # a whole id, then a newline: ``$`` matches before it
    "tw:000000000003\n",  # 16 characters, the last one a newline
    " tw:000000000003",
    "tw:00000 0000003",
    "tw:-000000000003",  # int() takes a sign
    "tw:0x00000000003",  # and a base prefix
    "tw:0_00000000003",  # and underscores
    "",
    b"tw:0000000000003",
    bytearray(b"tw:0000000000003"),
    ("tw:0000000000003",),
])
def test_looks_like_trace_id_accepts_lower_case_ascii_hex_only(near_miss):
    """The accept set is exactly ``tw:`` + 13 of ``0-9a-f``: everything
    a looser string-level check (``isdigit``, ``int(x, 16)``, ``\\d``,
    ``$``, ``casefold``) lets through stays out, and no input raises."""
    assert looks_like_trace_id(near_miss) is False
    assert decode_trace({TRACE_FIELD: near_miss}) is None


def test_looks_like_trace_id_accepts_every_hex_digit_and_str_subclasses():
    assert looks_like_trace_id("tw:0123456789abc") is True
    assert looks_like_trace_id("tw:3456789abcdef") is True

    class Wire(str):
        pass

    assert looks_like_trace_id(Wire("tw:0000000000003")) is True


def test_stamp_and_decode_round_trip():
    trace_id = encode_trace_id(42)
    stamped = stamp_trace(make_request(user="sealed"), trace_id)
    assert stamped.fields[TRACE_FIELD] == trace_id
    assert decode_trace(stamped) == trace_id
    assert decode_trace({TRACE_FIELD: trace_id}) == trace_id


def test_stamp_rejects_malformed_trace_ids():
    with pytest.raises(ValueError):
        stamp_trace(make_request(), "not-a-trace-id")


def test_decode_ignores_malformed_wire_values():
    assert decode_trace(make_request(trace="garbage")) is None
    assert decode_trace(make_request()) is None


def test_strip_trace_removes_the_field_and_returns_the_id():
    trace_id = encode_trace_id(9)
    stamped = stamp_trace(make_request(user="sealed"), trace_id)
    clean, severed = strip(stamped, TRACE)
    assert decode_trace(severed) == trace_id
    assert clean.fields == {"user": "sealed"}
    # Untraced requests pass through unchanged.
    untraced = make_request(user="sealed")
    assert strip(untraced, TRACE) == (untraced, {})


# -- causal tracer -------------------------------------------------------


def test_severing_invariant_on_a_clean_exchange():
    clock = {"now": 0.0}
    log = EventLog(clock=lambda: clock["now"])
    tracer = CausalTracer(clock=lambda: clock["now"], event_log=log)

    trace_id = tracer.start_call("get")
    request = tracer.stamp(make_request(user="sealed"), trace_id)
    # UA front door: strip, then tell the tracer the id is gone.
    _, severed = strip(request, TRACE)
    tracer.absorb("pprox-ua-0")
    assert decode_trace(severed) == trace_id
    clock["now"] = 0.5
    tracer.batch_flush("pprox-ua-0", size=4, timer_fired=False)
    tracer.settle_call(trace_id, ok=True)

    assert tracer.severed_cleanly()
    report = tracer.link_report()
    assert report["attempts_stamped"] == report["traces_severed"] == 1
    assert report["batch_spans"] == 1
    assert report["fan_in_total"] == 1
    # Retried attempt that never arrives breaks the clean-severing claim.
    second = tracer.start_call("get")
    tracer.stamp(make_request(), second)
    assert not tracer.severed_cleanly()


def test_batch_spans_carry_only_aggregates():
    clock = {"now": 1.0}
    log = EventLog(clock=lambda: clock["now"])
    tracer = CausalTracer(clock=lambda: clock["now"], event_log=log)
    for _ in range(3):
        trace_id = tracer.start_call("get")
        tracer.stamp(make_request(), trace_id)
        tracer.absorb("pprox-ua-1")
    tracer.batch_flush("pprox-ua-1", size=4, timer_fired=True)

    [span] = log.of_kind("bspan")
    assert span.payload["fan_in"] == 3
    assert span.payload["size"] == 4
    assert span.payload["timer_fired"] is True
    # No trace id (nor anything shaped like one) in the batch span.
    assert not any(looks_like_trace_id(v) for v in span.payload.values())
    assert TRACE_FIELD not in span.payload


def test_client_spans_record_attempts_and_duration():
    clock = {"now": 2.0}
    log = EventLog(clock=lambda: clock["now"])
    tracer = CausalTracer(clock=lambda: clock["now"], event_log=log)
    trace_id = tracer.start_call("get")
    tracer.stamp(make_request(), trace_id)
    tracer.stamp(make_request(), trace_id)  # one retry
    clock["now"] = 2.75
    tracer.settle_call(trace_id, ok=False)
    [span] = log.of_kind("cspan")
    assert span.payload["attempts"] == 2
    assert span.payload["duration"] == pytest.approx(0.75)
    assert span.payload["ok"] is False
    # Settling an unknown id is a no-op, not an error.
    tracer.settle_call("tw:ffffffffffffffff"[:TRACE_WIDTH], ok=True)
    assert tracer.calls_settled == 1


# -- wire auditor --------------------------------------------------------


def observation(source_role, destination_role, fields):
    return ObservedMessage(
        time=1.0,
        source=f"{source_role}-0",
        destination=f"{destination_role}-0",
        size_bytes=128,
        kind="request",
        verb="GET",
        fields=fields,
        source_role=source_role,
        destination_role=destination_role,
    )


def test_trace_exposures_allows_only_the_client_ua_hop():
    trace_id = encode_trace_id(5)
    clean = [
        observation("client", "ua", {TRACE_FIELD: trace_id}),
        observation("ua", "ia", {"user": "sealed"}),
    ]
    assert trace_field_exposures(clean) == []


def test_trace_exposures_flags_ids_past_the_ua():
    trace_id = encode_trace_id(5)
    leaked = [observation("ua", "ia", {TRACE_FIELD: trace_id})]
    [finding] = trace_field_exposures(leaked)
    assert "ua->ia" in finding and TRACE_FIELD in finding


def test_trace_exposures_catches_ids_smuggled_under_other_names():
    # A component that copied the id into a differently-named field is
    # still caught by the value-shape check.
    trace_id = encode_trace_id(6)
    smuggled = [observation("ia", "lrs", {"note": trace_id})]
    [finding] = trace_field_exposures(smuggled)
    assert "ia->lrs" in finding


# -- redaction boundary --------------------------------------------------


def test_redaction_scrubs_trace_ids_on_proxy_roles():
    policy = RedactionPolicy()
    trace_id = encode_trace_id(8)
    for role in ("ua", "ia", "lrs"):
        clean, violations = policy.scrub(role, {"trace": trace_id, "echo": trace_id})
        assert clean["trace"] == "[redacted:trace-id]"  # key-based
        assert clean["echo"] == "[redacted:trace-id]"  # marker-based
        assert {v.kind for v in violations} == {"trace-id"}


def test_redaction_leaves_client_trace_ids_alone():
    # The client legitimately knows its own trace ids (cspan events).
    policy = RedactionPolicy()
    trace_id = encode_trace_id(8)
    clean, violations = policy.scrub("client", {"trace": trace_id})
    assert clean == {"trace": trace_id}
    assert violations == []
