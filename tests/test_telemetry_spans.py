"""Tracer unit tests plus the stage-totals-vs-wire parity acceptance check.

The tracer writes no per-request record: a request's stage times live
in memory while it is in flight and are folded into per-stage
``(n, sum, max)`` totals when it settles.  So these tests read the
totals, and the log only to see that it stayed empty."""

import pytest

from repro.cluster.deployments import MICRO_CONFIGS
from repro.context import Deployment, SimContext
from repro.experiments.rig import pseudonymise_stub, stub_lrs
from repro.experiments.runner import run_micro
from repro.obs import causal
from repro.obs.causal import PIPELINE_STAGES, CausalTracer
from repro.telemetry import EventLog, Telemetry
from repro.workload.injector import Injector
from tests.conftest import streamed, written
from tests.oracles.wire_breakdown import STAGES, BreakdownProbe


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def logged_tracer(clock):
    log = EventLog(clock=clock)
    return CausalTracer(clock, event_log=log), log


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


def counts(tracer):
    return [tracer.stage_totals[stage][0] for stage in PIPELINE_STAGES]


def test_tracer_builds_complete_trace_from_hops():
    clock = FakeClock()
    tracer, log = logged_tracer(clock)
    drive_full_pipeline(tracer, clock)
    clock.now = 10.0
    tracer.record_hop(2, "client", "ua")
    clock.now = 13.0
    drive_full_pipeline(tracer, clock, request_id=2)
    assert (tracer.traces_started, tracer.traces_completed) == (2, 2)
    assert tracer.active_count == 0
    # Each hop of the first request advanced the clock by 1 s; the
    # second re-opened ua_inbound at its last client->ua hop (t=14),
    # so its stages lasted 1 s too, and the longest is 1 s.
    assert list(tracer.stage_totals) == list(PIPELINE_STAGES)
    assert tracer.stage_totals == {stage: [2, 2.0, 1.0] for stage in PIPELINE_STAGES}
    # Nothing per request reaches the log.
    assert len(log) == 0


def test_tracer_mid_pipeline_sighting_is_ignored():
    clock = FakeClock()
    tracer = CausalTracer(clock)
    tracer.record_hop(42, "ua", "ia")  # never saw client->ua
    assert tracer.active_count == 0
    assert tracer.traces_started == 0 and tracer.unknown_hops == 0


def test_tracer_unknown_hop_counted_not_traced():
    clock = FakeClock()
    tracer = CausalTracer(clock)
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
    # The stage left open is dropped with the request, and a request
    # that settles ok without all five stages is counted, not folded.
    tracer.record_hop(8, "client", "ua")
    tracer.record_hop(8, "ua", "ia")
    tracer.end_trace(8, ok=True)
    assert tracer.traces_completed == 1
    assert counts(tracer) == [0] * len(PIPELINE_STAGES)
    assert len(log) == 0


def test_tracer_annotate_keeps_nothing():
    clock = FakeClock()
    tracer, log = logged_tracer(clock)
    tracer.record_hop(1, "client", "ua")
    tracer.annotate(1, shuffle_wait_seconds=0.25, instance="pprox-ua-0")
    drive_full_pipeline(tracer, clock)
    assert counts(tracer) == [1] * len(PIPELINE_STAGES)
    assert len(log) == 0


def test_tracer_overflow_evicts_oldest_as_abandoned(monkeypatch):
    monkeypatch.setattr(causal, "MAX_ACTIVE", 2)
    clock = FakeClock()
    tracer = CausalTracer(clock)
    for request_id in (1, 2, 3):
        tracer.record_hop(request_id, "client", "ua")
    assert tracer.active_count == 2
    assert tracer.traces_abandoned == 1
    assert set(tracer._active) == {2, 3}


def folded(values):
    """What the tracer folds for *values* of one stage, in order."""
    return [len(values), sum(values), max(values)]


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_e2e_spans_match_the_wire_breakdown(codec):
    """Acceptance: every completed request is timed in each stage, and
    the tracer's per-stage count and sum equal, to float precision, what
    an independent observer reconstructs from the wire's send timestamps
    on the same run.

    On the binary wire a flush leaves the UA as ONE sealed envelope:
    the wire sees every request of the batch cross UA->IA at seal time,
    the tracer stamps each at its own transform end.  So there the two
    place the ua_inbound | ia_inbound boundary differently inside a
    batch, agree on the sum of the two, and agree on every other
    stage."""
    telemetry = Telemetry()
    stream = streamed(telemetry)
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
    assert tuple(PIPELINE_STAGES) == tuple(STAGES)
    totals = telemetry.tracer.stage_totals
    assert counts(telemetry.tracer) == [completed] * len(STAGES)
    assert completed == probe.completed_count > 0

    wire_values = probe.stage_values()
    per_stage = STAGES if codec == "json" else ("lrs", "ia_outbound", "ua_outbound")
    for stage in per_stage:
        assert totals[stage] == pytest.approx(folded(wire_values[stage]), abs=1e-9)
    inbound = ("ua_inbound", "ia_inbound")
    assert sum(totals[stage][1] for stage in inbound) == pytest.approx(
        sum(sum(wire_values[stage]) for stage in inbound), abs=1e-9
    )
    # No per-request record reaches the log.
    assert written(stream, "span") == [] and "span" not in telemetry.event_log.counts


def test_e2e_no_shuffle_config_also_traces():
    telemetry = Telemetry()
    stream = streamed(telemetry)
    config = MICRO_CONFIGS["m1"]  # no encryption, no shuffle
    result = run_micro(config, 20.0, seed=5, runs=1, duration=4.0, trim=1.0,
                       telemetry=telemetry)
    completed = sum(report.completed for report in result.reports)
    assert completed > 0
    assert counts(telemetry.tracer) == [completed] * len(PIPELINE_STAGES)
    assert f"{completed:8d}" in telemetry.render_summary()
    # The run-end record carries the totals the summary prints.
    [end] = [record for record in written(stream, "run") if record["phase"] == "end"]
    assert end["stage_totals"] == telemetry.tracer.stage_totals
