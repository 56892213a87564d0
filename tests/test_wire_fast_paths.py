"""Each fast path of a get's plumbing against the construction it stands for.

* A JSON-typed binary field (a get's item list on the binary wire) is
  parsed by ``_parse_json_field``: one C scan, falling back to
  ``_parse_json`` unless the scan reads the whole text.  It must give
  ``_parse_json``'s value, or raise ``_parse_json``'s error, on every
  input — whitespace on either side, duplicate keys, malformed or
  truncated text, ``NaN``, nested values.
* Every compact JSON encoding (a JSON body, a JSON-typed binary field)
  goes through one C encoder built once; it must write what
  ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` writes.
* A wire latency is ``base + jitter * random() + size * seconds_per_byte``;
  it must be the same float, to the last bit, as the
  ``base + rng.uniform(0, jitter) + size * seconds_per_byte`` it replaced.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rest.codec import CodecError, _parse_json, _parse_json_field
from repro.rest.messages import encode_compact_json
from repro.simnet.network import LatencyModel


def _outcome(parse, text):
    """``("value", canonical dump)`` or ``("error", type, message)``."""
    try:
        value = parse(text)
    except Exception as exc:  # the error itself is what is compared
        return ("error", type(exc), str(exc))
    # NaN != NaN, so compare the values through one canonical encoding.
    return ("value", type(value), json.dumps(value, sort_keys=True))


def _same(text):
    assert _outcome(_parse_json_field, text) == _outcome(_parse_json, text), text


CASES = {
    "leading whitespace": ' {"a": 1}',
    "trailing whitespace": '{"a": 1} \n',
    "whitespace both sides": '\t["x", "y"]\r\n',
    "only whitespace": "   ",
    "empty": "",
    "duplicate keys": '{"a": 1, "a": 2}',
    "nested duplicate keys": '{"a": {"b": 1, "b": 1}}',
    "malformed": '{"a": 1,}',
    "malformed list": "[1 2]",
    "unquoted key": "{a: 1}",
    "truncated object": '{"a": [1, 2',
    "truncated string": '["static-item-0',
    "truncated literal": "tru",
    "extra data": '{"a": 1}{"b": 2}',
    "extra literal": "1 2",
    "NaN": "NaN",
    "NaN in a list": "[NaN, Infinity, -Infinity]",
    "nested values": '{"b": [1, 2.5, {"c": null, "d": [true, false]}], "a": "\\u00e9"}',
    "a scalar": "42",
    "a string": '"static-item-00"',
    "the stub's item list": json.dumps([f"static-item-{i:02d}" for i in range(20)],
                                       separators=(",", ":")),
}


@pytest.mark.parametrize("text", list(CASES.values()), ids=list(CASES))
def test_the_json_fast_path_answers_as_parse_json(text):
    _same(text)


def test_a_duplicate_key_is_the_codec_error_on_both_paths():
    with pytest.raises(CodecError, match="duplicate key"):
        _parse_json_field('{"a": 1, "a": 2}')


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES, pad=st.sampled_from(["", " ", "\n", "\t "]),
       side=st.sampled_from(["none", "left", "right", "both"]),
       cut=st.integers(min_value=0, max_value=64), truncate=st.booleans())
def test_the_json_fast_path_answers_as_parse_json_on_generated_texts(value, pad, side, cut,
                                                                      truncate):
    text = json.dumps(value, separators=(",", ":"))
    if truncate:
        text = text[:max(0, len(text) - cut)]
    if side in ("left", "both"):
        text = pad + text
    if side in ("right", "both"):
        text = text + pad
    _same(text)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_the_compact_encoder_writes_what_json_dumps_writes(value):
    assert encode_compact_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("value", [object(), [1, {2j: 3}], {"a": {1, 2}}], ids=repr)
def test_the_compact_encoder_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as dumped:
        json.dumps(value, sort_keys=True, separators=(",", ":"))
    with pytest.raises(TypeError) as encoded:
        encode_compact_json(value)
    assert str(encoded.value) == str(dumped.value)


@pytest.mark.parametrize("seed", [0, 7, 11, 2026])
@pytest.mark.parametrize("model", [
    LatencyModel(),
    LatencyModel(base_seconds=0.001, jitter_seconds=0.002, seconds_per_byte=0.0),
    LatencyModel(base_seconds=0.0, jitter_seconds=0.0, seconds_per_byte=1e-3),
    LatencyModel(base_seconds=2.5e-4, jitter_seconds=3e-5, seconds_per_byte=8e-9),
], ids=["default", "jitter-only", "size-only", "odd"])
def test_the_latency_draw_is_the_uniform_draw_to_the_last_bit(seed, model):
    sizes = [0, 1, 59, 358, 1244, 4096] + list(range(0, 64 * 1024 + 1, 997)) + [64 * 1024]
    fast, reference = random.Random(seed), random.Random(seed)
    for size in sizes:
        drawn = model.sample(size, fast)
        expected = (model.base_seconds + reference.uniform(0, model.jitter_seconds)
                    + size * model.seconds_per_byte)
        assert drawn.hex() == expected.hex(), (size, drawn, expected)
        assert not math.isnan(drawn)
    # Both streams consumed the same draws.
    assert fast.getstate() == reference.getstate()
