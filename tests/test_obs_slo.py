"""SLO engine tests: objective validation, multi-window burn-rate
math for ratio/floor/ceiling kinds, static evaluation, histogram
quantiles, and the bounded tick that lets a run drain."""

import json

import pytest

from repro.obs.slo import (
    Objective,
    SloEngine,
    evaluate_static,
    histogram_quantile,
    write_slo,
)
from repro.simnet.clock import EventLoop
from repro.telemetry import Telemetry
from repro.telemetry.registry import Histogram


# -- objective validation ------------------------------------------------


def test_objective_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        Objective(name="x", kind="median", target=1.0, value="x")


def test_ratio_objective_needs_good_and_total():
    with pytest.raises(ValueError):
        Objective(name="x", kind="ratio", target=0.9, good="good")
    Objective(name="x", kind="ratio", target=0.9, good="good", total="total")


def test_level_objectives_need_a_value_source():
    for kind in ("floor", "ceiling"):
        with pytest.raises(ValueError):
            Objective(name="x", kind=kind, target=1.0)
        Objective(name="x", kind=kind, target=1.0, value="x")


# -- burn-rate math ------------------------------------------------------


def fed_engine(rows, short_window=2.0):
    """An engine with no loop, fed explicit (time, {source: value}) rows."""
    engine = SloEngine(short_window=short_window)
    state = {}

    keys = {key for _, row in rows for key in row}
    for key in sorted(keys):
        engine.track(key, lambda _key=key: state.get(_key))
    for when, row in rows:
        state.update(row)
        engine.sample_now(when)
    return engine


def test_ratio_burn_alerts_on_a_fast_short_window_burn():
    # 100 calls over 10s; errors start at t=8, so the trailing 2s
    # window burns at 5x while the long window sits exactly at 1x.
    rows = []
    for t in range(11):
        good = 10 * t if t <= 8 else 80 + 5 * (t - 8)
        rows.append((float(t), {"good": float(good), "total": float(10 * t)}))
    engine = fed_engine(rows)
    engine.telemetry = Telemetry()
    report = engine.evaluate(
        [Objective(name="goodput", kind="ratio", target=0.9, good="good", total="total")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.value == pytest.approx(0.9)
    assert m.ok  # exactly on target
    assert m.burn_long == pytest.approx(1.0)
    assert m.burn_short == pytest.approx(5.0)
    assert m.alert  # short >= alert_burn (2.0) and long >= 1.0
    # The alert is an ``slo`` event on the wire too: the objective's
    # kind travels as ``objective_kind``, not over the envelope's.
    alert, verdict = (event.to_dict() for event in engine.telemetry.event_log.of_kind("slo"))
    assert (alert["kind"], alert["event"], alert["objective_kind"]) == ("slo", "slo_alert", "ratio")
    assert (verdict["kind"], verdict["event"]) == ("slo", "slo_verdict")


def test_ratio_burn_stays_quiet_when_the_long_window_absorbed_it():
    # Same trailing spike, but the long window is nowhere near budget:
    # multi-window alerting must not page on an already-absorbed blip.
    rows = []
    for t in range(101):
        good = float(t) if t <= 98 else 98 + 0.5 * (t - 98)
        rows.append((float(t), {"good": good, "total": float(t)}))
    engine = fed_engine(rows)
    report = engine.evaluate(
        [Objective(name="goodput", kind="ratio", target=0.9, good="good", total="total")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.ok
    assert m.burn_long < 1.0
    assert m.burn_short == pytest.approx(5.0)
    assert not m.alert


def test_floor_is_judged_on_the_minimum_sample():
    rows = [(0.0, {"floor": 10.0}), (1.0, {"floor": 8.0}), (2.0, {"floor": 9.0})]
    engine = fed_engine(rows)
    report = engine.evaluate(
        [Objective(name="anon", kind="floor", target=9.0, value="floor")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.value == 8.0
    assert not m.ok
    assert m.burn_long == pytest.approx(0.25)  # 1 breach in 4 samples


def test_ceiling_is_judged_on_where_the_run_ended():
    rows = [(0.0, {"p99": 5.0}), (1.0, {"p99": 3.0}), (2.0, {"p99": 1.0})]
    engine = fed_engine(rows)
    report = engine.evaluate(
        [Objective(name="p99", kind="ceiling", target=2.0, value="p99")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.value == 1.0
    assert m.ok  # early breaches burned budget but the run recovered
    assert m.burn_long == pytest.approx(0.5)


def test_missing_source_fails_closed():
    engine = fed_engine([(0.0, {"other": 1.0})])
    report = engine.evaluate(
        [Objective(name="anon", kind="floor", target=1.0, value="absent")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.value is None
    assert not m.ok
    assert "(no samples)" in m.description
    assert not report.ok
    assert report.problems()


def test_none_returning_sources_skip_the_sample():
    engine = SloEngine()
    window = {"open": False}
    engine.track("gated", lambda: 4.0 if window["open"] else None)
    engine.sample_now(0.0)
    window["open"] = True
    engine.sample_now(1.0)
    window["open"] = False
    report = engine.evaluate(
        [Objective(name="gated", kind="floor", target=4.0, value="gated")],
        experiment="unit",
    )
    [m] = report.measurements
    assert m.ok  # only the in-window sample counts
    assert m.value == 4.0


# -- report / artifact ---------------------------------------------------


def test_report_lookup_and_slo_json_round_trip(tmp_path):
    engine = fed_engine([(0.0, {"v": 1.0}), (1.0, {"v": 2.0})])
    report = engine.evaluate(
        [Objective(name="v", kind="ceiling", target=3.0, value="v")],
        experiment="unit",
    )
    assert report.objective("v").ok
    with pytest.raises(KeyError):
        report.objective("missing")
    path = write_slo(report, str(tmp_path))
    data = json.loads((tmp_path / "slo.json").read_text())
    assert path.endswith("slo.json")
    assert data["experiment"] == "unit"
    assert data["ok"] is True
    assert data["objectives"][0]["name"] == "v"


def test_evaluate_static_reads_totals_without_an_engine():
    report = evaluate_static(
        [
            Objective(name="goodput", kind="ratio", target=0.9, good="ok", total="all"),
            Objective(name="floor", kind="floor", target=8.0, value="floor"),
            Objective(name="p99", kind="ceiling", target=0.5, value="p99"),
            Objective(name="ghost", kind="floor", target=1.0, value="absent"),
        ],
        {"ok": 99.0, "all": 100.0, "floor": 8.0, "p99": 0.7},
        experiment="scale",
    )
    by_name = {m.name: m for m in report.measurements}
    assert by_name["goodput"].ok and by_name["goodput"].value == pytest.approx(0.99)
    assert by_name["goodput"].burn_long is None  # no windows statically
    assert by_name["floor"].ok
    assert not by_name["p99"].ok
    assert not by_name["ghost"].ok and by_name["ghost"].value is None


# -- histogram quantiles -------------------------------------------------


def test_histogram_quantile_interpolates_within_buckets():
    hist = Histogram("pprox_test_seconds", buckets=(1.0, 2.0, 4.0))
    for _ in range(50):
        hist.observe(0.5)
    for _ in range(50):
        hist.observe(1.5)
    assert histogram_quantile(hist, 0.5) == pytest.approx(1.0)
    assert histogram_quantile(hist, 0.75) == pytest.approx(1.5)


def test_histogram_quantile_clamps_overflow_to_last_finite_bound():
    hist = Histogram("pprox_test_seconds", buckets=(1.0, 2.0, 4.0))
    hist.observe(100.0)
    assert histogram_quantile(hist, 0.99) == pytest.approx(4.0)


def test_histogram_quantile_is_none_when_empty():
    hist = Histogram("pprox_test_seconds", buckets=(1.0,))
    assert histogram_quantile(hist, 0.99) is None


# -- bounded tick --------------------------------------------------------


def test_attached_engine_samples_on_the_virtual_clock():
    loop = EventLoop()
    counter = {"n": 0}

    def pump():
        counter["n"] += 1
        if counter["n"] < 20:
            loop.schedule(0.5, pump)

    loop.schedule(0.0, pump)
    engine = SloEngine(interval=0.25)
    engine.track("n", lambda: float(counter["n"]))
    engine.attach(loop)
    loop.run()
    # ~4 samples per pump tick; the tick stops when the loop drains.
    assert len(engine.samples) > 20
    assert engine.samples[-1][0] <= 9.5 + engine.interval


def test_until_horizon_stops_the_tick_before_the_drain_tail():
    # Two self-re-arming samplers on one loop livelock without a
    # horizon: each sees the other's pending tick and re-arms forever.
    loop = EventLoop()
    counter = {"n": 0}

    def pump():
        counter["n"] += 1
        if counter["n"] < 8:
            loop.schedule(0.5, pump)

    loop.schedule(0.0, pump)
    first = SloEngine(interval=0.25)
    second = SloEngine(interval=0.25)
    for engine in (first, second):
        engine.track("t", lambda: 1.0)
        engine.attach(loop, until=2.0)
    loop.run()  # must drain — would hang forever without the horizon
    for engine in (first, second):
        assert len(engine.samples) >= 8
        assert engine.samples[-1][0] <= 2.0 + engine.interval
