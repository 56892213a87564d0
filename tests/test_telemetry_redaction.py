"""Redaction boundary tests: the audit must catch a planted leak and
pass on the real pipeline."""

from collections import OrderedDict, namedtuple
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.deployments import MICRO_CONFIGS
from repro.experiments.runner import run_micro
from repro.telemetry import EventLog, RedactionPolicy, Telemetry, audit_events
from repro.telemetry.redaction import ITEM_MARKERS, TRACE_MARKERS, USER_MARKERS
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
    log = EventLog()
    event = log.emit("span", "ia", {"user": "user-5"})
    assert event.payload["user"] == "[redacted:user-id]"
    assert len(log.violations) == 1


def test_payload_cannot_overwrite_the_event_envelope():
    """``time`` / ``seq`` / ``kind`` / ``role`` belong to the envelope: a
    payload may repeat one with the envelope's own value, never change
    it — or the artifact line would file the event under another kind."""
    log = EventLog()
    for emit in (log.emit, log.emit_raw):
        with pytest.raises(ValueError, match="reserved key 'kind'"):
            emit("fault", "chaos", {"event": "instance_crashed", "kind": "crash"})
        with pytest.raises(ValueError, match="reserved key 'role'"):
            emit("span", "ua", {"role": "client"})
        with pytest.raises(ValueError, match="reserved key 'seq'"):
            emit("span", "ua", {"seq": 99})
    assert len(log) == 0 and log.next_seq == 1
    event = log.emit("span", "ua", {"role": "ua", "kind": "span", "name": "lrs"})
    assert event.to_dict() == {
        "time": 0.0, "seq": 1, "kind": "span", "role": "ua", "name": "lrs",
    }


def test_audit_catches_deliberate_leak():
    telemetry = Telemetry()
    assert telemetry.audit() == []
    # Plant a leak past the boundary, as a buggy instrument would.
    telemetry.event_log.emit_raw("span", "ua", {"item": "item-31337"})
    leaks = telemetry.audit()
    assert len(leaks) == 1
    assert leaks[0].kind == "item-id"
    assert leaks[0].role == "ua"


def test_real_pipeline_passes_audit_and_artifact_round_trips(tmp_path):
    """Acceptance: a full encrypted+shuffled run emits zero identifier
    leaks, and the JSONL artifact re-parses to the same clean verdict."""
    telemetry = Telemetry()
    result = run_micro(MICRO_CONFIGS["m6"], 25.0, seed=11, runs=1,
                      duration=4.0, trim=1.0, telemetry=telemetry)
    assert sum(report.completed for report in result.reports) > 0
    assert len(telemetry.event_log) > 0
    # Nothing was even scrubbed at the boundary: the instrumentation
    # never hands identifiers to the wrong role in the first place.
    assert telemetry.boundary_violations == []
    assert telemetry.audit() == []

    paths = telemetry.write_artifact(str(tmp_path))
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
