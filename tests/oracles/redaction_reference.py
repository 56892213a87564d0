"""The redaction walk as it stood before the single-pass scrub.

A reference tests (and ``benchmarks/run_telemetry_bench.py``) compare
:meth:`repro.telemetry.redaction.RedactionPolicy.scrub` against, not
product code: a recursive walk that copies every container, builds a
dotted path for every key and index whether or not anything is
redacted, and asks ``isinstance(value, typing.Mapping)`` of every
value.  Slow and obviously right.  The marker and key tables are the
policy's data and are imported; the walk is what is pinned here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.telemetry.redaction import (
    ITEM_KEYS,
    ITEM_MARKERS,
    TRACE_KEYS,
    TRACE_MARKERS,
    USER_KEYS,
    USER_MARKERS,
    RedactionPolicy,
    Violation,
)

__all__ = ["reference_scrub"]

_REDACTED = {
    "user-id": "[redacted:user-id]",
    "item-id": "[redacted:item-id]",
    "trace-id": "[redacted:trace-id]",
}


def reference_scrub(
    policy: RedactionPolicy, role: str, payload: Mapping[str, Any]
) -> Tuple[Dict[str, Any], List[Violation]]:
    """What ``policy.scrub(role, payload)`` must return, exactly."""
    kinds = policy.forbidden.get(role, ())
    violations: List[Violation] = []
    if not kinds:
        return dict(payload), violations
    clean = _scrub_value(role, kinds, payload, "", violations)
    return clean, violations


def _marker_kind(value: str) -> str | None:
    """Classify a string as a user id, item id, or neither."""
    for marker in USER_MARKERS:
        if value.startswith(marker):
            return "user-id"
    for marker in ITEM_MARKERS:
        if value.startswith(marker):
            return "item-id"
    for marker in TRACE_MARKERS:
        if value.startswith(marker):
            return "trace-id"
    return None


def _key_kind(key: Any) -> str | None:
    if not isinstance(key, str):
        return None
    lowered = key.lower()
    if lowered in USER_KEYS:
        return "user-id"
    if lowered in ITEM_KEYS:
        return "item-id"
    if lowered in TRACE_KEYS:
        return "trace-id"
    return None


def _scrub_value(
    role: str,
    kinds: Tuple[str, ...],
    value: Any,
    path: str,
    violations: List[Violation],
) -> Any:
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for key, sub in value.items():
            sub_path = f"{path}.{key}" if path else str(key)
            key_kind = _key_kind(key)
            if key_kind is not None and key_kind in kinds:
                violations.append(
                    Violation(role=role, kind=key_kind, path=sub_path, value=_preview(sub))
                )
                out[key] = _REDACTED[key_kind]
                continue
            out[key] = _scrub_value(role, kinds, sub, sub_path, violations)
        return out
    if isinstance(value, (list, tuple)):
        return [
            _scrub_value(role, kinds, item, f"{path}[{i}]", violations)
            for i, item in enumerate(value)
        ]
    if isinstance(value, (bytes, bytearray)):
        # Ciphertext / sealed blobs: structurally opaque, keep only size.
        return f"<{len(value)} bytes>"
    if isinstance(value, str):
        kind = _marker_kind(value)
        if kind is not None and kind in kinds:
            violations.append(Violation(role=role, kind=kind, path=path, value=value))
            return _REDACTED[kind]
        return value
    return value


def _preview(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
