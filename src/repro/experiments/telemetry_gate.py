"""Telemetry scenario: the pipeline's acceptance criteria on one run.

A short m6 micro run (full pipeline, 40 RPS for 8 s) with the
telemetry hub attached.  The gate holds when every completed request
was timed in each of the five stages, the artifact's batch spans match
the UA shuffle flushes one to one, the JSONL artifact round-trips, and
the redaction audit over it is clean.  (That the per-stage totals equal
the wire's own send-timestamp deltas is held in tier-1,
``tests/test_telemetry_spans.py``, on both wires.)
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.cluster.deployments import MICRO_CONFIGS
from repro.experiments.report import render_telemetry
from repro.experiments.runner import run_micro
from repro.telemetry import EventLog, Telemetry, audit_events

__all__ = ["gate"]


def gate(out_dir: str) -> List[str]:
    """``repro run telemetry``: run into the streamed artifact, then
    self-check what it holds."""
    telemetry = Telemetry(scrape_interval=1.0)
    telemetry.open_artifact(out_dir)
    result = run_micro(
        MICRO_CONFIGS["m6"], 40.0, seed=7, runs=1, duration=8.0, trim=2.0,
        telemetry=telemetry,
    )
    completed = sum(report.completed for report in result.reports)
    print(render_telemetry(telemetry))

    problems: List[str] = []
    for stage, (count, _, _) in telemetry.tracer.stage_totals.items():
        if count != completed or not completed:
            problems.append(f"{stage}: {count} requests timed, {completed} completed")

    paths = telemetry.close_artifact()
    with open(paths["events"], "r", encoding="utf-8") as handle:
        records = EventLog.parse_jsonl(handle.read())
    if not records:
        problems.append("telemetry artifact has no events")
    # One batch span per UA request-buffer flush, read off the artifact:
    # the spans by instance against the run-end metric snapshot.
    spans = Counter(f"{r['instance']}-requests" for r in records if r["kind"] == "bspan")
    flushes = {
        metric["labels"]["buffer"]: int(metric["value"])
        for record in records
        if record["kind"] == "run" and record["phase"] == "end"
        for metric in record["metrics"]
        if metric["name"] == "pprox_shuffle_flushes_total"
        and metric["labels"]["buffer"].endswith("-requests")
    }
    if not spans or dict(spans) != flushes:
        problems.append(f"batch spans {dict(spans)} do not match UA flushes {flushes}")
    leaks = audit_events(records)
    problems.extend(f"redaction leak in artifact: {leak.describe()}" for leak in leaks[:10])
    print(
        f"{completed} completed requests,"
        f" {sum(spans.values())} batch spans, {len(records)} events in the artifact"
    )
    return problems
