"""Tracer unit tests plus the span-vs-wire parity acceptance check."""

import pytest

from repro.cluster.deployments import MICRO_CONFIGS
from repro.context import Deployment, SimContext
from repro.experiments.rig import pseudonymise_stub, stub_lrs
from repro.experiments.runner import run_micro
from repro.telemetry import PIPELINE_STAGES, EventLog, Telemetry
from repro.telemetry.spans import Tracer
from repro.workload.injector import Injector
from tests.oracles.wire_breakdown import STAGES, BreakdownProbe


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def logged_tracer(clock, **options):
    """A tracer plus the log it emits to: the tracer keeps nothing of a
    settled request, so what happened is read off the span records."""
    log = EventLog(clock=clock)
    return Tracer(clock, event_log=log, **options), log


def span_records(log):
    return [event.payload for event in log.of_kind("span")]


def drive_full_pipeline(tracer, clock, request_id=1):
    hops = [
        ("client", "ua"),
        ("ua", "ia"),
        ("ia", "lrs"),
        ("lrs", "ia"),
        ("ia", "ua"),
        ("ua", "client"),
    ]
    for src, dst in hops:
        clock.now += 1.0
        tracer.record_hop(request_id, src, dst)
    tracer.end_trace(request_id, ok=True)


def test_tracer_builds_complete_trace_from_hops():
    clock = FakeClock()
    tracer, log = logged_tracer(clock)
    drive_full_pipeline(tracer, clock)
    assert tracer.traces_completed == 1
    assert tracer.active_count == 0
    [root] = tracer.complete_traces()
    assert root["complete"] is True and root["name"] == "request"
    assert list(root["stage_durations"]) == list(PIPELINE_STAGES)
    # Each hop advanced the clock by 1s, so every stage lasted 1s.
    assert root["stage_durations"] == {stage: 1.0 for stage in PIPELINE_STAGES}
    assert tracer.stage_values() == {stage: [1.0] for stage in PIPELINE_STAGES}
    # Root span opens at the first hop (t=1) and closes at settle (t=6).
    assert root["duration"] == pytest.approx(5.0)
    # One record per stage, then the root; each stage is the root's child.
    *stages, last = span_records(log)
    assert last is root
    assert [stage["name"] for stage in stages] == list(PIPELINE_STAGES)
    assert all(stage["parent_id"] == root["span_id"] for stage in stages)
    # Stage roles follow the pipeline, not the sender.
    roles = {event.payload["name"]: event.role for event in log.of_kind("span")}
    assert roles["lrs"] == "lrs"
    assert roles["ua_outbound"] == "ua"


def test_tracer_mid_pipeline_sighting_is_ignored():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.record_hop(42, "ua", "ia")  # never saw client->ua
    assert tracer.active_count == 0
    assert tracer.hops_recorded == 1


def test_tracer_unknown_hop_counted_not_traced():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.record_hop(1, "unknown", "ua")
    assert tracer.unknown_hops == 1
    assert tracer.active_count == 0


def test_tracer_abandon_marks_dangling_stage():
    clock = FakeClock()
    tracer, log = logged_tracer(clock)
    clock.now = 1.0
    tracer.record_hop(7, "client", "ua")
    clock.now = 2.0
    tracer.abandon(7)
    assert tracer.traces_abandoned == 1
    assert tracer.active_count == 0
    # The stage left open is dropped with the trace: only the root is
    # recorded, abandoned, with no closed stage to its name.
    [root] = span_records(log)
    assert root["name"] == "request"
    assert root["status"] == "abandoned"
    assert root["stage_durations"] == {}
    assert root["complete"] is False
    assert tracer.complete_traces() == []


def test_tracer_annotate_targets_open_stage():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.record_hop(1, "client", "ua")
    tracer.annotate(1, shuffle_wait_seconds=0.25)
    tracer.record_hop(1, "ua", "ia")
    tracer.annotate(1, backend="lrs-0")
    trace = tracer._active[1]
    assert trace.stages["ua_inbound"].attributes == {"shuffle_wait_seconds": 0.25}
    assert trace.stages["ia_inbound"].attributes == {"backend": "lrs-0"}


def test_tracer_overflow_evicts_oldest_as_abandoned():
    clock = FakeClock()
    tracer, log = logged_tracer(clock, max_active=2)
    for request_id in (1, 2, 3):
        tracer.record_hop(request_id, "client", "ua")
    assert tracer.active_count == 2
    assert tracer.traces_abandoned == 1
    assert set(tracer._active) == {2, 3}
    [root] = span_records(log)
    assert (root["trace_id"], root["status"]) == (1, "abandoned")


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_e2e_spans_match_the_wire_breakdown(codec):
    """Acceptance: every completed request yields a five-stage trace and
    the span-derived stage durations equal, to float precision, what an
    independent observer reconstructs from the wire's send timestamps
    on the same run.

    On the binary wire a flush leaves the UA as ONE sealed envelope:
    the wire sees every request of the batch cross UA->IA at seal time,
    the span tracer stamps each at its own transform end.  So there the
    two place the ua_inbound | ia_inbound boundary differently inside a
    batch, agree on the sum per request, and agree on every other
    stage."""
    telemetry = Telemetry()
    probe = BreakdownProbe()
    ctx = SimContext.fresh(3000, telemetry=telemetry, codec=codec)
    telemetry.bind(ctx.loop, run_label=f"m6/{codec}")
    probe.attach(ctx.network)
    stub = stub_lrs(ctx)
    deployment = Deployment.build(  # m6, the full pipeline: crypto + sgx + shuffling
        ctx=ctx, config=MICRO_CONFIGS["m6"].pprox_config(0.25), lrs_picker=lambda: stub
    )
    pseudonymise_stub(stub, deployment)
    client = deployment.client()
    injector = Injector(ctx.loop, ctx.rng.stream("injector"))
    injector.inject(25.0, 5.0, lambda done: client.get("user-1", on_complete=done))
    ctx.loop.run()

    completed = injector.report.completed
    sealed = sum(ua.batch_envelopes_sealed for ua in deployment.service.ua_instances)
    assert (sealed > 0) == (codec == "binary")
    traces = telemetry.tracer.complete_traces()
    assert len(traces) == completed == probe.completed_count > 0
    assert tuple(PIPELINE_STAGES) == tuple(STAGES)
    for trace in traces:
        assert set(trace["stage_durations"]) == set(STAGES)

    span_values = telemetry.tracer.stage_values()
    wire_values = probe.stage_values()
    per_stage = STAGES if codec == "json" else ("lrs", "ia_outbound", "ua_outbound")
    for stage in per_stage:
        assert sorted(span_values[stage]) == pytest.approx(sorted(wire_values[stage]), abs=1e-9)

    def inbound(per_request):
        return sorted(d["ua_inbound"] + d["ia_inbound"] for d in per_request)

    assert inbound(trace["stage_durations"] for trace in traces) == pytest.approx(
        inbound(probe.complete_traces()), abs=1e-9
    )


def test_e2e_no_shuffle_config_also_traces():
    telemetry = Telemetry()
    config = MICRO_CONFIGS["m1"]  # no encryption, no shuffle
    result = run_micro(config, 20.0, seed=5, runs=1, duration=4.0, trim=1.0,
                       telemetry=telemetry)
    completed = sum(report.completed for report in result.reports)
    assert completed > 0
    assert len(telemetry.tracer.complete_traces()) == completed
    # The summary's running (n, sum, max) per stage, folded as each
    # trace settled, say what the log's root records say.
    for stage, values in telemetry.tracer.stage_values().items():
        count, total, longest = telemetry.tracer.stage_totals[stage]
        assert (count, longest) == (completed, max(values))
        assert total == pytest.approx(sum(values), rel=1e-12)
    assert f"{completed:8d}" in telemetry.render_summary()
