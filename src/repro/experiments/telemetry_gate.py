"""Telemetry scenario: the pipeline's acceptance criteria on one run.

A short m6 micro run (full pipeline, 40 RPS for 8 s) with the
telemetry hub attached.  The gate holds when every completed request
yields a complete five-stage trace, the JSONL artifact round-trips,
and the redaction audit over it is clean.  (That span-derived stage
durations equal the wire's own send-timestamp deltas is held in
tier-1, ``tests/test_telemetry_spans.py``, on both wires.)
"""

from __future__ import annotations

from typing import List

from repro.cluster.deployments import MICRO_CONFIGS
from repro.experiments.report import render_telemetry
from repro.experiments.runner import run_micro
from repro.telemetry import PIPELINE_STAGES, EventLog, Telemetry, audit_events

__all__ = ["gate"]


def gate(out_dir: str) -> List[str]:
    """``repro run telemetry``: run, self-check, write the artifact."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_micro(
        MICRO_CONFIGS["m6"], 40.0, seed=7, runs=1, duration=8.0, trim=2.0,
        telemetry=telemetry,
    )
    completed = sum(report.completed for report in result.reports)
    print(render_telemetry(telemetry))

    problems: List[str] = []
    traces = telemetry.tracer.complete_traces()
    if len(traces) < max(completed, 1):
        problems.append(
            f"only {len(traces)} complete traces for {completed} completed requests"
        )
    for trace in traces:
        missing = [stage for stage in PIPELINE_STAGES if stage not in trace["stage_durations"]]
        if missing:
            problems.append(f"trace {trace['trace_id']} missing stages: {missing}")
            break

    paths = telemetry.write_artifact(out_dir)
    with open(paths["events"], "r", encoding="utf-8") as handle:
        records = EventLog.parse_jsonl(handle.read())
    if not records:
        problems.append("telemetry artifact has no events")
    leaks = audit_events(records)
    problems.extend(f"redaction leak in artifact: {leak.describe()}" for leak in leaks[:10])
    print(
        f"{len(traces)} complete traces, {completed} completed requests,"
        f" {len(records)} events in the artifact"
    )
    return problems
