"""Redaction boundary tests: the audit must catch a planted leak and
pass on the real pipeline."""

import io
import json
from collections import OrderedDict, namedtuple
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.deployments import MICRO_CONFIGS
from repro.experiments.runner import run_micro
from repro.telemetry import EventLog, RedactionPolicy, Telemetry, audit_events
from repro.telemetry.events import JsonlSink, TelemetryEvent
from repro.telemetry.redaction import ITEM_MARKERS, TRACE_MARKERS, USER_MARKERS
from tests.conftest import streamed, written
from tests.oracles.redaction_reference import reference_scrub


@pytest.fixture
def policy():
    return RedactionPolicy()


def test_ua_must_not_carry_item_ids(policy):
    clean, violations = policy.scrub("ua", {"item": "opaque", "note": "item-42"})
    assert clean["item"] == "[redacted:item-id]"  # key-based
    assert clean["note"] == "[redacted:item-id]"  # marker-based
    assert {v.kind for v in violations} == {"item-id"}
    # User ids are legitimate on the UA side.
    clean, violations = policy.scrub("ua", {"user": "user-7"})
    assert clean == {"user": "user-7"}
    assert violations == []


def test_ia_must_not_carry_user_ids(policy):
    clean, violations = policy.scrub("ia", {"user": "pseudonym", "src": "client-user-3"})
    assert clean["user"] == "[redacted:user-id]"
    assert clean["src"] == "[redacted:user-id]"
    assert {v.kind for v in violations} == {"user-id"}
    clean, violations = policy.scrub("ia", {"item": "item-9"})
    assert clean == {"item": "item-9"}
    assert violations == []


def test_lrs_may_carry_neither(policy):
    _, violations = policy.scrub("lrs", {"user": "x", "items": ["movie-1"]})
    assert {v.kind for v in violations} == {"user-id", "item-id"}


def test_client_and_operator_are_unrestricted(policy):
    for role in ("client", "operator"):
        payload = {"user": "user-1", "item": "item-2"}
        clean, violations = policy.scrub(role, payload)
        assert clean == payload
        assert violations == []


def test_nested_structures_and_paths(policy):
    payload = {"batch": [{"ref": "static-item-03"}, {"ok": 1}]}
    clean, violations = policy.scrub("ua", payload)
    assert clean["batch"][0]["ref"] == "[redacted:item-id]"
    [violation] = violations
    assert violation.path == "batch[0].ref"
    assert "item-id leak" in violation.describe()


def test_bytes_reduced_to_size(policy):
    clean, violations = policy.scrub("ua", {"blob": b"\x00" * 48})
    assert clean["blob"] == "<48 bytes>"
    assert violations == []


def test_event_log_scrubs_at_emission():
    stream = io.StringIO()
    log = EventLog(sink=JsonlSink(stream))
    log.emit("span", "ia", {"user": "user-5"})
    [record] = written(stream)
    assert record["user"] == "[redacted:user-id]"
    assert "user-5" not in stream.getvalue()
    assert len(log.violations) == 1


def test_payload_cannot_overwrite_the_event_envelope():
    """``time`` / ``seq`` / ``kind`` / ``role`` belong to the envelope: a
    payload may repeat one with the envelope's own value, never change
    it — or the artifact line would file the event under another kind.
    A log with no sink refuses the same payloads, so an emitter's slip
    fails in-process runs too, not only runs that write an artifact."""
    for sink in (JsonlSink(io.StringIO()), None):
        log = EventLog(sink=sink)
        with pytest.raises(ValueError, match="reserved key 'kind'"):
            log.emit("fault", "chaos", {"event": "instance_crashed", "kind": "crash"})
        with pytest.raises(ValueError, match="reserved key 'role'"):
            log.emit("span", "ua", {"role": "client"})
        with pytest.raises(ValueError, match="reserved key 'seq'"):
            log.emit("span", "ua", {"seq": 99})
        with pytest.raises(ValueError, match="reserved key 'time'"):
            log.emit("span", "ua", {"time": 5.0})
        assert len(log) == 0 and log.next_seq == 1 and log.counts == {}
        assert sink is None or sink.stream.getvalue() == ""
        log.emit("span", "ua", {"role": "ua", "kind": "span", "time": 0.0, "name": "lrs"})
        assert len(log) == 1 and log.counts == {"span": 1}
        assert sink is None or written(sink.stream) == [{
            "time": 0.0, "seq": 1, "kind": "span", "role": "ua", "name": "lrs",
        }]


def test_audit_catches_deliberate_leak():
    telemetry = Telemetry()
    stream = streamed(telemetry)
    assert telemetry.audit() == []
    # Through the boundary, a planted item id reaches the stream
    # redacted, and the audit still reports the record: an ``item`` key
    # on a ``ua`` record is a leak whatever its value.
    telemetry.event_log.emit("span", "ua", {"item": "item-31337"})
    assert written(stream)[0]["item"] == "[redacted:item-id]"
    assert "item-31337" not in stream.getvalue()
    assert len(telemetry.event_log.violations) == 1
    [leak] = telemetry.audit()
    assert (leak.role, leak.kind, leak.path) == ("ua", "item-id", "item")
    # Plant a leak past the boundary, as a buggy instrument would: the
    # stream's re-check of what it wrote reports the id itself.
    telemetry.event_log.sink.write(TelemetryEvent(0.0, "span", "ua", {"item": "item-31337"}))
    assert written(stream)[1]["item"] == "item-31337"
    leaks = telemetry.audit()
    assert len(leaks) == 2
    assert leaks[1].kind == "item-id"
    assert leaks[1].role == "ua"
    assert leaks[1].value == "'item-31337'"


def test_audit_catches_a_trace_id_on_a_post_shuffle_event():
    """A ``trace_id`` of any value on a ``ua`` / ``ia`` / ``lrs`` event
    names one request past the shuffle: a ``trace-id`` violation."""
    telemetry = Telemetry()
    streamed(telemetry)
    for role in ("ua", "ia", "lrs", "client"):
        telemetry.event_log.sink.write(
            TelemetryEvent(0.0, "span", role, {"trace_id": 9, "name": "lrs"})
        )
    leaks = telemetry.audit()
    assert [(leak.role, leak.kind, leak.path) for leak in leaks] == [
        (role, "trace-id", "trace_id") for role in ("ua", "ia", "lrs")
    ]


def test_real_pipeline_passes_audit_and_artifact_round_trips(tmp_path):
    """Acceptance: a full encrypted+shuffled run emits zero identifier
    leaks, and the JSONL artifact re-parses to the same clean verdict."""
    telemetry = Telemetry()
    telemetry.open_artifact(str(tmp_path))
    result = run_micro(MICRO_CONFIGS["m6"], 25.0, seed=11, runs=1,
                      duration=4.0, trim=1.0, telemetry=telemetry)
    assert sum(report.completed for report in result.reports) > 0
    assert len(telemetry.event_log) > 0
    # Nothing was even scrubbed at the boundary: the instrumentation
    # never hands identifiers to the wrong role in the first place.
    assert telemetry.event_log.violations == []
    assert telemetry.audit() == []

    paths = telemetry.close_artifact()
    text = open(paths["events"], encoding="utf-8").read()
    records = EventLog.parse_jsonl(text)
    assert len(records) == len(telemetry.event_log)
    assert audit_events(records) == []
    prom = open(paths["metrics"], encoding="utf-8").read()
    assert "pprox_shuffle_batch_fill" in prom
    assert "pprox_effective_anonymity_set" in prom


def test_parse_jsonl_reports_bad_line_number():
    with pytest.raises(ValueError, match="line 2"):
        EventLog.parse_jsonl('{"ok": 1}\nnot-json\n')


# -- the old recursive walk is the oracle -------------------------------

class Tag(str):
    """A ``str`` subclass: misses every exact-type fast path."""


Pair = namedtuple("Pair", "left right")

_MARKERS = USER_MARKERS + ITEM_MARKERS + TRACE_MARKERS
# Every marker prefix as is, and as the near-misses a careless rewrite
# confuses with it: upper case, cut one short, behind a leading space.
_PREFIXES = _MARKERS + tuple(m.upper() for m in _MARKERS) + tuple(m[:-1] for m in _MARKERS)
_strings = st.one_of(
    st.text(max_size=6),
    st.builds(
        lambda lead, prefix, tail: lead + prefix + tail,
        st.sampled_from(["", "", "", " "]),
        st.sampled_from(_PREFIXES),
        st.text(alphabet="0123456789abcdef-", max_size=14),
    ),
)
_keys = st.one_of(
    st.sampled_from([
        "user", "User", "USER_ID", "client", "Client_Address", "item", "Items",
        "ITEM_ID", "item_ids", "trace", "TRACE", "trace_id", "name", "instance",
        "attributes", "role", "", Tag("user"), Tag("Items"), 0, 1, -2, True, None, (0, "a"),
    ]),
    st.text(max_size=3),
)
_leaves = st.one_of(
    st.sampled_from([None, True, False, 0, 7, -1.5, 1e300, float("inf")]),
    st.floats(allow_nan=False),
    _strings,
    _strings.map(Tag),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    _strings.map(lambda text: frozenset([text])),
)


def _mappings(children, max_size):
    # Pairs, not ``st.dictionaries``: a repeated key overwrites instead
    # of making Hypothesis redraw until the keys are unique.
    plain = st.lists(st.tuples(_keys, children), max_size=max_size).map(dict)
    return st.one_of(plain, plain.map(OrderedDict), plain.map(MappingProxyType))


def _containers(children):
    sequences = st.lists(children, max_size=3)
    return st.one_of(
        _mappings(children, 3),
        sequences,
        sequences.map(tuple),
        st.builds(Pair, children, children),
    )


_payloads = _mappings(st.recursive(_leaves, _containers, max_leaves=5), 4)
_roles = st.sampled_from(["ua", "ia", "lrs", "client", "operator", "chaos", "never-registered"])


@settings(max_examples=500, deadline=None)
@given(role=_roles, payload=_payloads)
def test_scrub_equals_the_reference_walk(role, payload):
    """Same clean payload (values, container types, key order) and the
    same violations (role, kind, path, value, order) as the recursive
    walk this scrub replaced; the input is left as it was."""
    policy = RedactionPolicy()
    before = repr(payload)
    clean, violations = policy.scrub(role, payload)
    expected_clean, expected_violations = reference_scrub(policy, role, payload)
    assert repr(payload) == before
    assert clean == expected_clean
    # ``==`` takes an OrderedDict or a mappingproxy for a dict and
    # ignores key order; the printed form does neither.
    assert repr(clean) == repr(expected_clean)
    assert violations == expected_violations
    assert clean is not payload


def test_reference_walk_and_scrub_agree_on_a_planted_leak_in_every_role():
    """Not vacuous: the shapes the property draws do leak, per role."""
    policy = RedactionPolicy()
    payload = {"attributes": {"note": "item-7", "User": b"blob", "path": ["tw:0000000000001"]}}
    paths = {
        "item-id": "attributes.note", "user-id": "attributes.User",
        "trace-id": "attributes.path[0]",
    }
    for role, kinds in (("ua", ["item-id", "trace-id"]), ("ia", ["user-id", "trace-id"]),
                        ("lrs", ["item-id", "user-id", "trace-id"]), ("client", [])):
        clean, violations = policy.scrub(role, payload)
        assert (clean, violations) == reference_scrub(policy, role, payload)
        assert [(v.kind, v.path) for v in violations] == [(kind, paths[kind]) for kind in kinds]


# -- the sink's line prefilter is a superset of the walk ----------------

_sink_modes = st.sampled_from(["written", "written", "no stream", "another kind"])
# Records JSON spells without ``default`` (string keys, JSON-native
# leaves): the ones whose walk the line may let the sink skip.
_native_keys = st.one_of(
    st.sampled_from([
        "user", "User", "USER_ID", "client", "Client_Address", "item", "Items",
        "ITEM_ID", "item_ids", "trace", "TRACE", "trace_id", "name", "instance",
        "attributes", "", Tag("user"), Tag("Items"), "\u212aey", "us\u00e9r",
    ]),
    st.text(max_size=3),
)
_native_leaves = st.one_of(
    st.sampled_from([None, True, False, 0, 7, -1.5, 1e300, float("inf"), float("nan")]),
    _strings,
    _strings.map(Tag),
)
_native_payloads = st.dictionaries(
    _native_keys,
    st.recursive(_native_leaves, lambda children: st.one_of(
        st.lists(children, max_size=3), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_native_keys, children, max_size=3)), max_leaves=5),
    max_size=4,
)


@settings(max_examples=500, deadline=None)
@given(role=_roles, payload=st.one_of(_native_payloads, _native_payloads, _payloads),
       mode=_sink_modes)
def test_the_sink_finds_what_the_audit_finds(role, payload, mode):
    """``JsonlSink.write`` skips the walk of a written record whose line
    shows no forbidden name or prefix; whatever it skips, ``leaks`` is
    what ``audit_events`` finds, leaking records included, and the line
    is the one ``json.dumps(..., default=str)`` writes."""
    event = TelemetryEvent(1.25, "span", role, payload, 3)
    record = event.to_dict()
    expected = audit_events((record,))
    stream = None if mode == "no stream" else io.StringIO()
    sink = JsonlSink(stream, kinds=("fault",) if mode == "another kind" else None)
    try:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
    except TypeError:
        line = None  # a tuple key, or keys that do not sort: the write raises too
    if line is None and mode == "written":
        with pytest.raises(TypeError):
            sink.write(event)
    else:
        sink.write(event)
        if mode == "written":
            assert stream.getvalue() == line
    assert sink.leaks == expected


@pytest.mark.parametrize("role, payload, walked", [
    ("ua", {"name": "ua_inbound", "attributes": {"instance": "pprox-ua-0", "ecalls": 2}}, False),
    ("ua", {"attributes": {"ITEMS": 3}}, True),
    ("ua", {"note": ["movie-3"]}, True),
    ("ia", {"src": "Client-7"}, True),
    # KELVIN SIGN lowers to an ASCII "k": an escaped key is always walked.
    ("ia", {"\u212aey": 1}, True),
    ("client", {"item": "item-1", "user": "user-1"}, False),
])
def test_may_leak_reads_the_line_of_a_record(role, payload, walked):
    record = TelemetryEvent(0.0, "span", role, payload, 1).to_dict()
    line = json.dumps(record, sort_keys=True)
    assert RedactionPolicy().may_leak(role, line) is walked
