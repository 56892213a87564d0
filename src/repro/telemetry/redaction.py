"""The privacy boundary of the telemetry layer.

PProx's adversary (§2.3 / §4) observes *every* network flow; the whole
point of the UA/IA split is that no single vantage point links a user
id to an item id.  Telemetry is a vantage point too: if UA-side spans
carried item ids, or IA-side spans user ids, the operator's log
aggregator would reassemble exactly the correlation the proxies exist
to destroy.  This module enforces the split at emission time:

* events attributed to the ``ua`` role may never contain item ids;
* events attributed to the ``ia`` role may never contain user ids;
* events attributed to the ``lrs`` role may contain neither in the
  clear (the LRS only ever sees pseudonyms);
* none of those three may carry a trace id — a ``tw:`` wire id, or a
  ``trace`` / ``trace_id`` field of any value — since a request named
  on both sides of the shuffle is a request the shuffle no longer hides;
* ``client`` and ``operator`` events are unrestricted — the client
  library legitimately knows both sides of its own requests.

Violating values are replaced by ``[redacted:<kind>]`` markers and the
violation is recorded, so the audit (:func:`audit_events`) can both
fail loudly in tests and prove cleanliness on the real pipeline.

Every emitted record passes through here, so the scrub is one pass
that pays only for what it finds: a container is copied once at C
level and only its leaking slots rewritten, an exact
``float``/``int``/``bool``/``None`` costs a type test, a ``str`` one
``startswith`` over the role's forbidden prefixes, and a dotted path is
spelled out only for a redaction or a nested container.  The recursive
walk this replaced is the oracle of the property test
(``tests/oracles/redaction_reference.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, Tuple

__all__ = ["RedactionPolicy", "Violation", "audit_events", "DEFAULT_POLICY"]

# Identifier shapes used across the repo.  Users come from the
# MovieLens loader (``user-{N}``) and clients are addressed
# ``client-{user}``; items are ``movie-{N}`` (MovieLens), ``item-{N}``
# (synthetic), or ``static-item-{NN}`` (the stub LRS catalogue).
USER_MARKERS: Tuple[str, ...] = ("user-", "client-")
ITEM_MARKERS: Tuple[str, ...] = ("static-item-", "item-", "movie-")
# Causal-trace wire ids (repro.obs.tracewire) are "tw:" + 13 hex chars.
# They are severed at the UA front door; a post-shuffle span or event
# carrying one would re-link a client request across the shuffler, so
# they are treated as an identifier class of their own.
TRACE_MARKERS: Tuple[str, ...] = ("tw:",)

# Field names that denote an identifier even when the value itself is
# opaque (e.g. an already-encrypted blob stored under key "user").
# "trace" is the wire field; "trace_id" names a request in a log record,
# and one on a post-shuffle event would join the request across the
# shuffler just as the wire id would.
USER_KEYS = frozenset({"user", "user_id", "client", "client_address"})
ITEM_KEYS = frozenset({"item", "items", "item_id", "item_ids"})
TRACE_KEYS = frozenset({"trace", "trace_id"})

# kind -> (value prefixes, field names); no prefix of one kind is a
# prefix of another's, so one ``startswith`` over a role's forbidden
# prefixes decides whether a string leaks.
_KINDS: Dict[str, Tuple[Tuple[str, ...], frozenset]] = {
    "user-id": (USER_MARKERS, USER_KEYS),
    "item-id": (ITEM_MARKERS, ITEM_KEYS),
    "trace-id": (TRACE_MARKERS, TRACE_KEYS),
}

# Exact types that can neither hold nor be an identifier: skipped
# without a call, a copy or a path.
_INERT = frozenset({float, int, bool, type(None)})


@dataclass(frozen=True)
class Violation:
    """One leaked identifier caught (or detected) at the boundary."""

    role: str
    kind: str  # "user-id" | "item-id" | "trace-id"
    path: str  # dotted path into the event payload
    value: str

    def describe(self) -> str:
        return f"{self.kind} leak in {self.role!r} event at {self.path}: {self.value!r}"


@lru_cache(maxsize=None)
def _plan(kinds: Tuple[str, ...]) -> Tuple[Dict[str, str], Tuple[str, ...]]:
    """``(field name -> kind, value prefixes)`` of the forbidden *kinds*."""
    keys = {key: kind for kind in kinds for key in _KINDS[kind][1]}
    markers = tuple(marker for kind in kinds for marker in _KINDS[kind][0])
    return keys, markers


@lru_cache(maxsize=None)
def _needles(kinds: Tuple[str, ...]) -> Tuple[str, ...]:
    """Substrings one of which the lowercased JSON text of a record that
    leaks one of *kinds* contains (:meth:`RedactionPolicy.may_leak`).

    Every forbidden field name and value prefix, less those that contain
    another (``item`` stands for ``items`` and ``static-item-``), and
    ``\\u``: a key holding a non-ASCII character is written escaped,
    so its ``lower()`` cannot be read off the text.
    """
    keys, markers = _plan(kinds)
    spelled = set(keys) | set(markers)
    kept = sorted(word for word in spelled
                  if not any(other != word and other in word for other in spelled))
    return tuple(kept) + ("\\u",)


def _marker_kind(value: str) -> str:
    """Kind of the identifier prefix *value* is known to start with."""
    return next(kind for kind, (markers, _) in _KINDS.items() if value.startswith(markers))


@dataclass
class RedactionPolicy:
    """Role-aware scrubber applied to every emitted telemetry payload."""

    # role -> kinds of identifier that role must never emit
    forbidden: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "ua": ("item-id", "trace-id"),
            "ia": ("user-id", "trace-id"),
            "lrs": ("user-id", "item-id", "trace-id"),
        }
    )

    def scrub(self, role: str, payload: Mapping[str, Any]) -> Tuple[Dict[str, Any], List[Violation]]:
        """Return a clean copy of *payload* plus the violations found."""
        kinds = self.forbidden.get(role, ())
        violations: List[Violation] = []
        if not kinds:
            return dict(payload), violations
        return _scrub_value(role, _plan(kinds), payload, "", violations), violations

    def may_leak(self, role: str, text: str) -> bool:
        """False only if the record *text* spells finds nothing under *role*.

        *text* must be the record's JSON as ``json.dumps`` writes it with
        ASCII escapes and no ``default``, so that every key and string of
        the record is in it.  A leak is a field name whose ``lower()`` is
        forbidden, or a string that starts with a forbidden prefix; both
        are ASCII, so each shows in the lowercased text as one of the
        role's :func:`_needles`.  True is only a maybe: the caller walks
        the record (:func:`audit_events`) to find what, if anything, leaks.
        """
        kinds = self.forbidden.get(role, ())
        if not kinds:
            return False
        lowered = text.lower()
        return any(needle in lowered for needle in _needles(kinds))


def _scrub_value(role: str, plan: tuple, value: Any, path: str, violations: List[Violation]) -> Any:
    """Clean copy of one container, blob or string found at *path*."""
    if type(value) is dict or isinstance(value, Mapping):
        out: Any = dict(value)  # one C-level copy; only changed slots are rewritten
        _scrub_entries(role, plan, out, out.items(), path, violations, keyed=True)
        return out
    if isinstance(value, (list, tuple)):
        out = list(value)
        _scrub_entries(role, plan, out, enumerate(out), path, violations, keyed=False)
        return out
    if isinstance(value, (bytes, bytearray)):
        # Ciphertext / sealed blobs: structurally opaque, keep only size.
        return f"<{len(value)} bytes>"
    if isinstance(value, str) and value.startswith(plan[1]):
        return _redact(role, _marker_kind(value), path, value, violations)
    return value


def _scrub_entries(
    role: str,
    plan: tuple,
    out: Any,
    entries: Iterator[Tuple[Any, Any]],
    path: str,
    violations: List[Violation],
    keyed: bool,
) -> None:
    """Rewrite in place the slots of the fresh copy *out* that leak.

    *entries* yields ``(key, value)`` of a mapping or ``(index, item)``
    of a sequence.  The common slot — an inert scalar or a string with
    no forbidden prefix — costs one type test and at most one
    ``startswith``; the slot's path is only spelled out when something
    is redacted or a nested container is entered.
    """
    keys, markers = plan
    for step, sub in entries:
        if keyed and isinstance(step, str):
            kind = keys.get(step.lower())
            if kind is not None:
                out[step] = _redact(
                    role, kind, _join(path, step, keyed), _preview(sub), violations
                )
                continue
        exact = type(sub)
        if exact in _INERT:
            continue
        if exact is str:
            if sub.startswith(markers):
                out[step] = _redact(
                    role, _marker_kind(sub), _join(path, step, keyed), sub, violations
                )
            continue
        out[step] = _scrub_value(role, plan, sub, _join(path, step, keyed), violations)


def _join(path: str, step: Any, keyed: bool) -> str:
    if keyed:
        return f"{path}.{step}" if path else str(step)
    return f"{path}[{step}]"


def _redact(role: str, kind: str, path: str, value: str, violations: List[Violation]) -> str:
    violations.append(Violation(role=role, kind=kind, path=path, value=value))
    return f"[redacted:{kind}]"


DEFAULT_POLICY = RedactionPolicy()


def audit_events(
    events: Iterable[Mapping[str, Any]],
    policy: RedactionPolicy | None = None,
) -> List[Violation]:
    """Re-scan emitted (or re-parsed) events for identifier leaks.

    This is the adversary's-eye check: it assumes nothing about how an
    event was produced and simply walks every payload with the role
    recorded on the event itself.  A clean pipeline returns ``[]``.
    """
    policy = policy or DEFAULT_POLICY
    found: List[Violation] = []
    for event in events:
        role = str(event.get("role", "unknown"))
        _, violations = policy.scrub(role, event)
        found.extend(violations)
    return found


def _preview(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
