"""The event log keeps no record: a sink-less hub only counts, and a
stream gets each record the moment it is emitted."""

from __future__ import annotations

import io
import tracemalloc

from repro.experiments.rig import DrillRig
from repro.simnet.clock import EventLoop
from repro.telemetry import EventLog, Telemetry
from repro.telemetry.events import JsonlSink, TelemetryEvent
from tests.conftest import written


def _settled_calls_growth(calls: int) -> tuple:
    """Bytes a bound, sink-less hub holds after its tracer settles
    *calls* client calls, beyond what it held before the first; and the
    hub."""
    hub = Telemetry(scrape_interval=1.0)
    hub.bind(EventLoop(), run_label="sinkless")
    tracer = hub.tracer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            trace_id = tracer.start_call("get")
            tracer.settle_call(trace_id, ok=True)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown, hub


def test_a_sinkless_hub_holds_no_record_however_many_calls_settle():
    small, small_hub = _settled_calls_growth(500)
    large, large_hub = _settled_calls_growth(4000)
    for hub, calls in ((small_hub, 500), (large_hub, 4000)):
        assert hub.event_log.sink is None
        assert len(hub.event_log) == calls + 1  # every cspan and the run start
        assert hub.event_log.counts == {"run": 1, "cspan": calls}
        assert hub.tracer.calls_settled == calls
    # A kept record is hundreds of bytes: 3,500 more would be ~2 MB.
    assert large - small < 4096, (small, large)


def test_a_stream_gets_each_record_as_it_is_emitted():
    clock = {"now": 0.0}
    stream = io.StringIO()
    log = EventLog(clock=lambda: clock["now"], sink=JsonlSink(stream))
    log.emit("fault", "operator", {"event": "instance_crashed"})
    assert written(stream) == [
        {"time": 0.0, "seq": 1, "kind": "fault", "role": "operator", "event": "instance_crashed"}
    ]
    clock["now"] = 1.5
    log.emit("fault", "operator", {"event": "instance_restarted"})
    assert [record["time"] for record in written(stream)] == [0.0, 1.5]
    assert len(log) == 2 and log.counts == {"fault": 2}


def test_a_stream_of_some_kinds_numbers_records_among_all_of_them():
    """A stream taking some kinds writes only those, under the sequence
    numbers the whole log gave them; the log counts every kind."""
    hub = Telemetry()
    stream = io.StringIO()
    hub.stream_to(stream, kinds=("bspan",))
    hub.event_log.emit("run", "operator", {"phase": "start"})
    hub.tracer.batch_flush("pprox-ua-0", size=4, timer_fired=False)
    hub.event_log.emit("fault", "operator", {"event": "instance_crashed"})
    hub.tracer.batch_flush("pprox-ua-0", size=4, timer_fired=True)
    assert [(record["kind"], record["seq"]) for record in written(stream)] == [
        ("bspan", 2), ("bspan", 4),
    ]
    assert hub.event_log.counts == {"run": 1, "bspan": 2, "fault": 1}
    assert hub.audit() == []


def test_a_stream_of_some_kinds_audits_the_records_it_does_not_write():
    """The re-check covers every record the log builds, not only the
    lines the stream's kinds let through."""
    hub = Telemetry()
    stream = io.StringIO()
    hub.stream_to(stream, kinds=("bspan",))
    hub.event_log.emit("span", "ua", {"item": "item-31337"})
    hub.event_log.sink.write(TelemetryEvent(0.0, "span", "ia", {"user": "user-31337"}))
    assert stream.getvalue() == ""
    assert [(leak.role, leak.kind) for leak in hub.audit()] == [("ua", "item-id"), ("ia", "user-id")]


def test_a_drill_rig_without_an_out_dir_audits_what_it_writes_nowhere():
    """An in-process drill builds and re-checks every record, keeps
    none, and a stream attached later keeps what the re-check found."""
    rig = DrillRig("audit", 7, grace=1.0)
    log = rig.telemetry.event_log
    log.emit("span", "ua", {"item": "item-31337"})
    assert [(leak.role, leak.kind) for leak in rig.telemetry.audit()] == [("ua", "item-id")]
    assert rig.event_count("span") == 1 and rig.out_dir is None
    stream = io.StringIO()
    rig.telemetry.stream_to(stream)
    log.emit("span", "ia", {"user": "user-31337"})
    assert [(leak.role, leak.kind) for leak in rig.telemetry.audit()] == [
        ("ua", "item-id"), ("ia", "user-id"),
    ]
    assert [record["kind"] for record in written(stream)] == ["span"]


def test_the_artifact_is_streamed_and_closed_with_its_metrics(tmp_path):
    hub = Telemetry()
    hub.open_artifact(str(tmp_path))
    hub.bind(EventLoop(), run_label="artifact")
    hub.finalize_run()
    paths = hub.close_artifact()
    records = written(io.StringIO(open(paths["events"], encoding="utf-8").read()))
    assert [(record["kind"], record["phase"]) for record in records] == [
        ("run", "start"), ("run", "end"),
    ]
    assert open(paths["metrics"], encoding="utf-8").read() == hub.registry.render_prometheus()
