"""Experiment harness: runners, figure builders, report rendering."""

from __future__ import annotations

import hashlib

import pytest

from repro.client import DirectClient
from repro.cluster.deployments import MACRO_BASELINES, MACRO_FULL, MICRO_CONFIGS
from repro.experiments.figures import FigureData, figure6, figure7
from repro.experiments.report import render_figure, render_medians, render_table2, render_table3
from repro.experiments.runner import RunResult, run_baseline, run_full, run_micro
from repro.rest.messages import make_get
from repro.workload.scenario import ScenarioTimings

QUICK = dict(runs=1, duration=8.0, trim=2.0)
QUICK_TIMINGS = ScenarioTimings.quick()


def _pin(result):
    """Each run's (issued, completed, failed) and a digest of every
    trimmed window latency: a refactor of the runners must leave both
    exactly as they are."""
    counts = [(report.issued, report.completed, report.failed) for report in result.reports]
    return counts, hashlib.sha256(repr(result.window_latencies).encode()).hexdigest()


def test_run_micro_produces_samples():
    result = run_micro(MICRO_CONFIGS["m1"], 50, seed=2, **QUICK)
    assert result.window_latencies
    assert not result.saturated
    assert result.summary().median < 0.05


def test_run_micro_is_deterministic():
    one = run_micro(MICRO_CONFIGS["m3"], 50, seed=3, **QUICK)
    two = run_micro(MICRO_CONFIGS["m3"], 50, seed=3, **QUICK)
    assert one.window_latencies == two.window_latencies
    assert _pin(one) == (
        [(400, 400, 0)], "5afb29c2850fb9169fe32ffebe835725fc36afd60ca20c8b79b64bdd1ac48980"
    )


def test_run_micro_post_path_is_pinned():
    result = run_micro(MICRO_CONFIGS["m6"], 50, seed=2, verb="post", **QUICK)
    assert _pin(result) == (
        [(400, 400, 0)], "1c44cf34ce67a6475e08edc171b0cdf65af1418ff100cd908750d119dd63b259"
    )


def test_run_micro_seed_changes_results():
    one = run_micro(MICRO_CONFIGS["m3"], 50, seed=3, **QUICK)
    two = run_micro(MICRO_CONFIGS["m3"], 50, seed=4, **QUICK)
    assert one.window_latencies != two.window_latencies


def test_run_micro_aggregates_runs():
    single = run_micro(MICRO_CONFIGS["m1"], 50, seed=5, runs=1, duration=8.0, trim=2.0)
    double = run_micro(MICRO_CONFIGS["m1"], 50, seed=5, runs=2, duration=8.0, trim=2.0)
    assert len(double.window_latencies) == 2 * len(single.window_latencies)


def test_micro_overload_is_flagged_saturated():
    result = run_micro(MICRO_CONFIGS["m6"], 400, seed=2, **QUICK)
    assert result.saturated


def test_run_baseline_and_full():
    baseline = run_baseline(MACRO_BASELINES["b1"], 50, seed=2, runs=1,
                            timings=QUICK_TIMINGS, workload_scale=0.003)
    full = run_full(MACRO_FULL["f1"], 50, seed=2, runs=1,
                    timings=QUICK_TIMINGS, workload_scale=0.003)
    assert baseline.window_latencies and full.window_latencies
    # The full system pays the proxy + shuffling overhead.
    assert full.summary().median > baseline.summary().median
    assert _pin(baseline) == (
        [(500, 500, 0)], "4998b7f93bd6d71857411b7432a8cd81746634126ee60efe46efedc5e7630786"
    )
    assert _pin(full) == (
        [(500, 500, 0)], "f87df8cac96bb2b8470a19aa56ecb2d12a2d19135ab623c118ed8e48be23a59c"
    )


def test_run_baseline_request_ids_do_not_depend_on_process_history(monkeypatch):
    """The direct client numbers its own requests from 1, so two
    same-seed baseline runs issue identical id sequences whatever drew
    from the process-wide ``rest.messages`` counter in between."""
    issued = []
    dispatch = DirectClient._dispatch

    def recording_dispatch(self, request, *rest):
        issued.append(request.request_id)
        dispatch(self, request, *rest)

    monkeypatch.setattr(DirectClient, "_dispatch", recording_dispatch)
    quick = dict(seed=2, runs=1, timings=QUICK_TIMINGS, workload_scale=0.003)
    run_baseline(MACRO_BASELINES["b1"], 50, **quick)
    first, issued[:] = list(issued), []
    make_get("someone-else")
    run_baseline(MACRO_BASELINES["b1"], 50, **quick)
    assert issued == first == list(range(1, len(first) + 1))


def test_run_baseline_rejects_full_config():
    with pytest.raises(ValueError):
        run_baseline(MACRO_FULL["f1"], 50)


def test_run_full_rejects_baseline_config():
    with pytest.raises(ValueError):
        run_full(MACRO_BASELINES["b1"], 50)


def test_figure_builders_produce_series():
    data = figure6(seed=2, runs=1, duration=8.0, trim=2.0, rps_grid=[50])
    assert set(data.series) == {"m1", "m2", "m3", "m4"}
    point = data.point("m1", 50)
    assert point.summary is not None
    medians = data.medians("m1")
    assert 50 in medians


def test_figure_data_point_lookup_missing():
    data = FigureData("figX", "test")
    with pytest.raises(KeyError):
        data.point("m1", 50)


def test_render_figure_contains_all_rows():
    data = figure7(seed=2, runs=1, duration=8.0, trim=2.0, rps_grid=[50])
    text = render_figure(data)
    for name in ("m3", "m5", "m6"):
        assert name in text
    assert "med" in text


def test_render_medians_compact_view():
    data = figure6(seed=2, runs=1, duration=8.0, trim=2.0, rps_grid=[50])
    text = render_medians(data)
    assert "m1:" in text and "50rps=" in text


def test_render_table2_lists_all_micro_configs():
    text = render_table2()
    for name in MICRO_CONFIGS:
        assert name in text
    assert "enc=*" in text  # m4's star notation


def test_render_table3_lists_all_macro_configs():
    text = render_table3()
    for name in list(MACRO_BASELINES) + list(MACRO_FULL):
        assert name in text
    assert "no proxy" in text
