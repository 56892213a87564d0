#!/usr/bin/env python3
"""Metric-name lint: every instrument registered under ``src/repro``
must follow the Prometheus naming conventions the dashboards rely on.

Checked per ``*.counter(...)`` / ``*.gauge(...)`` / ``*.histogram(...)``
call site whose metric name is statically visible:

* the name carries the ``pprox_`` namespace prefix;
* the name ends in a unit suffix (``_total``, ``_seconds``, ``_ratio``,
  ``_bytes``) unless it is a known dimensionless quantity listed in
  ``DIMENSIONLESS`` (counts of things, 0/1 states, set sizes);
* counters specifically end in ``_total``;
* the help string (second positional argument) is a non-empty literal —
  a metric nobody can explain is a metric nobody can use.

f-string names are checked on their literal head/tail (e.g.
``f"pprox_workload_{quantity}_total"``); fully dynamic names are
skipped.  No file is exempt.

Exit status 0 when clean; 1 with a per-site report otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Registration methods on a MetricRegistry (or telemetry.registry).
METRIC_METHODS = ("counter", "gauge", "histogram")

#: Accepted unit suffixes (text-exposition conventions).
UNIT_SUFFIXES = ("_total", "_seconds", "_ratio", "_bytes")

#: Dimensionless metrics: counts-in-flight, 0/1 states, set sizes and
#: entry counts, where a unit suffix would be noise.  Exact names only —
#: additions here are API decisions, not lint escapes.
DIMENSIONLESS = frozenset(
    {
        "pprox_proxy_pending",
        "pprox_node_queue_length",
        "pprox_instance_up",
        "pprox_shuffle_occupancy",
        "pprox_shuffle_flush_size",
        "pprox_shuffle_batch_fill",
        "pprox_effective_anonymity_set",
        "pprox_crypto_cache_size",
        "pprox_queue_unbounded",
        "pprox_queue_depth",
        "pprox_breaker_state",
        "pprox_limiter_limit",
        "pprox_rotation_state",
    }
)

def literal_parts(node: ast.AST) -> Optional[Tuple[str, str, bool]]:
    """(head, tail, is_exact) of a statically-visible metric name.

    A plain string literal returns ``(name, name, True)``; an f-string
    returns its leading/trailing literal fragments with ``is_exact``
    False; anything else returns None (dynamic, skipped).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.value, True
    if isinstance(node, ast.JoinedStr):
        head = ""
        tail = ""
        values = node.values
        if values and isinstance(values[0], ast.Constant):
            head = str(values[0].value)
        if values and isinstance(values[-1], ast.Constant):
            tail = str(values[-1].value)
        return head, tail, False
    return None


def check_call(node: ast.Call, relative: str) -> List[str]:
    """Lint problems for one registration call site (empty = clean)."""
    method = node.func.attr  # type: ignore[union-attr]
    if not node.args:
        return []
    parts = literal_parts(node.args[0])
    if parts is None:
        return []
    head, tail, is_exact = parts
    label = head if is_exact else f"{head}...{tail}"
    where = f"{relative}:{node.lineno}"
    problems: List[str] = []
    if not head.startswith("pprox_"):
        problems.append(f"{where}: {method} {label!r} lacks the pprox_ prefix")
    if method == "counter":
        if not tail.endswith("_total"):
            problems.append(f"{where}: counter {label!r} must end in _total")
    elif is_exact and head not in DIMENSIONLESS and not tail.endswith(UNIT_SUFFIXES):
        problems.append(
            f"{where}: {method} {label!r} needs a unit suffix"
            f" {UNIT_SUFFIXES} (or a DIMENSIONLESS entry)"
        )
    if len(node.args) < 2:
        problems.append(f"{where}: {method} {label!r} has no help string")
    elif not _has_help_text(node.args[1]):
        problems.append(
            f"{where}: {method} {label!r} needs a non-empty literal help string"
        )
    return problems


def _has_help_text(node: ast.AST) -> bool:
    """True when the help argument carries literal, non-blank text.

    Plain string literals must be non-blank; f-string help (e.g. the
    per-quantity workload counters) passes when any literal fragment
    carries text.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and bool(node.value.strip())
    if isinstance(node, ast.JoinedStr):
        return any(
            isinstance(value, ast.Constant) and str(value.value).strip()
            for value in node.values
        )
    return False


def check_file(path: Path) -> List[str]:
    relative = str(path.relative_to(SRC))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems: List[str] = []
    sites = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METRIC_METHODS
        ):
            sites += 1
            problems.extend(check_call(node, relative))
    return problems


def main() -> int:
    failures: Dict[str, List[str]] = {}
    checked = 0
    for path in sorted(SRC.rglob("*.py")):
        checked += 1
        problems = check_file(path)
        if problems:
            failures[str(path.relative_to(SRC.parent.parent))] = problems
    if failures:
        print("metric-name lint failed:\n")
        for problems in failures.values():
            for problem in problems:
                print(f"  {problem}")
        total = sum(len(problems) for problems in failures.values())
        print(f"\n{total} problem(s) in {len(failures)} file(s)")
        return 1
    print(f"metric-name lint OK ({checked} modules scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
