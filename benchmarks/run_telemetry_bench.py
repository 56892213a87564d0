"""Emit ``BENCH_telemetry.json``: the emission path vs the old walk.

Every telemetry record passes :meth:`repro.telemetry.events.EventLog.emit`
— scrub for the emitting role, then store — and a record of a
restricted role (``ua`` / ``ia`` / ``lrs``) is scrubbed field by field,
so the scrub is the emission path's bill.  This measures ``emit`` of a
representative nested ``ua`` payload (eight flat fields and a map of
seven attributes; ``role``, the ninth field of the artifact line, is the
envelope's) through two logs that differ in one thing: one scrubs with
the single-pass :meth:`RedactionPolicy.scrub`, the other with the
recursive walk it replaced, kept as the test oracle in
``tests/oracles/redaction_reference.py``::

    PYTHONPATH=src python benchmarks/run_telemetry_bench.py

Floor (exit 1 below it): ``emit`` must run at >= 4x the throughput of
``emit`` over the oracle walk (measured 5.2-5.7x; scrub against walk
with nothing stored, 6.4x).  The two sides are timed back to back in every
repeat, each into a fresh log, so both store the same events into the
same amount of memory and a slow phase of the host hits both.

A floor that can be met by skipping the scrub is no floor: one payload
in every batch of the timed loop carries a planted item id, and the
run fails unless, in every repeat, each of them was redacted in the
stored event and recorded as a boundary violation, and no clean
payload was.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
import timeit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.telemetry.events import EventLog
from repro.telemetry.redaction import RedactionPolicy
from tests.oracles.redaction_reference import reference_scrub

OUTPUT = REPO_ROOT / "BENCH_telemetry.json"

FLOORS = {"emit_ua_stage_span": 4.0}

#: A ``ua`` record with a nested attribute map: eight flat fields, none
#: an identifier (a ``trace_id`` would be one), and seven attributes.
STAGE_SPAN = {
    "batch": 1041,
    "span_id": 6243,
    "name": "ua_inbound",
    "start": 12.251003,
    "status": "ok",
    "parent_id": 6242,
    "end": 12.376118,
    "duration": 0.125115,
    "attributes": {
        "instance": "pprox-ua-0",
        "service_seconds": 0.000412,
        "shuffle_wait_seconds": 0.124101,
        "ecalls": 2,
        "routing_pending": 9,
        "sgx_overhead_seconds": 0.000207,
        "epc_paging": False,
    },
}
PLANTED_ID = "item-31337"
LEAKING_SPAN = {**STAGE_SPAN, "attributes": {**STAGE_SPAN["attributes"], "backend": PLANTED_ID}}

#: Payloads per timed batch; the last one of each batch leaks.
BATCH = 50
BATCHES = 400
REPEAT = 7


class OraclePolicy(RedactionPolicy):
    """The same policy scrubbing with the reference walk."""

    def scrub(self, role, payload):
        return reference_scrub(self, role, payload)


def _emit_us(policy: RedactionPolicy, problems: list) -> float:
    """Microseconds per payload of one timed repeat into a fresh log."""
    log = EventLog(policy=policy)
    emit = log.emit

    def batch() -> None:
        for _ in range(BATCH - 1):
            emit("span", "ua", STAGE_SPAN)
        emit("span", "ua", LEAKING_SPAN)

    seconds = timeit.Timer(batch).timeit(number=BATCHES)
    problems += _scrub_skipped(log, policy)
    return seconds / (BATCHES * BATCH) * 1e6


def _scrub_skipped(log: EventLog, policy: RedactionPolicy) -> list:
    """What is wrong with the events one timed repeat stored: every
    planted id redacted and recorded, nothing else touched."""
    problems = []
    if len(log) != BATCHES * BATCH:
        problems.append(f"{len(log)} events stored, {BATCHES * BATCH} emitted")
    if any(PLANTED_ID in json.dumps(event.payload) for event in log.events):
        problems.append(f"a stored event still carries {PLANTED_ID!r}")
    redacted = sum(
        event.payload["attributes"].get("backend") == "[redacted:item-id]" for event in log.events
    )
    if redacted != BATCHES:
        problems.append(f"{redacted} payloads redacted, {BATCHES} planted")
    expected = [("ua", "item-id", "attributes.backend", PLANTED_ID)] * BATCHES
    if [(v.role, v.kind, v.path, v.value) for v in log.violations] != expected:
        problems.append(f"{len(log.violations)} violations recorded, {BATCHES} planted")
    if log.events[0].payload != reference_scrub(policy, "ua", STAGE_SPAN)[0]:
        problems.append("emit and the oracle disagree on the clean payload")
    return problems


def _scrub_us(policy: RedactionPolicy) -> float:
    """Microseconds per payload of the scrub alone, nothing stored."""
    timer = timeit.Timer(lambda: policy.scrub("ua", STAGE_SPAN))
    return min(timer.repeat(REPEAT, BATCHES * BATCH)) / (BATCHES * BATCH) * 1e6


def main() -> int:
    policy, oracle = RedactionPolicy(), OraclePolicy()
    problems: list = []
    emit_us = oracle_emit_us = float("inf")
    for _ in range(REPEAT):
        emit_us = min(emit_us, _emit_us(policy, problems))
        oracle_emit_us = min(oracle_emit_us, _emit_us(oracle, problems))
    scrub_us, walk_us = _scrub_us(policy), _scrub_us(oracle)

    results = {
        "emit_ua_stage_span": {
            "emit_us": round(emit_us, 3),
            "oracle_emit_us": round(oracle_emit_us, 3),
            "speedup": round(oracle_emit_us / emit_us, 2),
            "scrub_only_us": round(scrub_us, 3),
            "oracle_walk_only_us": round(walk_us, 3),
            "scrub_only_speedup": round(walk_us / scrub_us, 2),
            "planted_leaks_per_timed_repeat": BATCHES,
        }
    }
    report = {
        "benchmark": "EventLog.emit with the single-pass scrub vs EventLog.emit over the oracle walk",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "microseconds per payload (best of timeit repeats)",
        "payload": "ua record: 8 flat fields + 7 attributes; 1 in 50 carries a planted item id",
        "results": results,
        "floors": FLOORS,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    entry = results["emit_ua_stage_span"]
    print(f"{'emit_ua_stage_span':24s} {entry['emit_us']:>8.2f} us"
          f"  (over the oracle walk {entry['oracle_emit_us']:>8.2f} us, {entry['speedup']:.1f}x;"
          f" scrub alone {entry['scrub_only_us']:.2f} us vs {entry['oracle_walk_only_us']:.2f} us,"
          f" {entry['scrub_only_speedup']:.1f}x)")
    print(f"\nwrote {OUTPUT}")
    failed = [
        f"{name}: {results[name]['speedup']}x < {floor}x"
        for name, floor in FLOORS.items()
        if results[name]["speedup"] < floor
    ]
    if failed:
        print("SPEEDUP FLOOR VIOLATED: " + "; ".join(failed), file=sys.stderr)
    if problems:
        print("SCRUB SKIPPED OR WRONG: " + "; ".join(sorted(set(problems))), file=sys.stderr)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
