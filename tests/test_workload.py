"""Workload: synthetic MovieLens trace, injector, two-phase scenario."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.client import DirectClient
from repro.lrs.service import HarnessService
from repro.simnet.clock import EventLoop
from repro.simnet.metrics import LatencyRecorder
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.workload.injector import Injector
from repro.workload.movielens import PAPER_SLICE, SyntheticMovieLens
from repro.workload.scenario import ScenarioTimings, TwoPhaseScenario


def test_trace_is_deterministic():
    one = SyntheticMovieLens(seed=1, scale=0.005)
    two = SyntheticMovieLens(seed=1, scale=0.005)
    assert one.events == two.events


def test_trace_seeds_differ():
    assert SyntheticMovieLens(seed=1, scale=0.005).events != SyntheticMovieLens(
        seed=2, scale=0.005
    ).events


def test_trace_scale_controls_size():
    small = SyntheticMovieLens(seed=1, scale=0.002)
    large = SyntheticMovieLens(seed=1, scale=0.02)
    assert len(large.events) > len(small.events) * 4
    assert len(large.users) == pytest.approx(PAPER_SLICE["users"] * 0.02, rel=0.1)


def test_item_popularity_is_heavy_tailed():
    trace = SyntheticMovieLens(seed=3, scale=0.02)
    counts = Counter(item for _, item in trace.events).most_common()
    top_share = sum(c for _, c in counts[: len(counts) // 10]) / len(trace.events)
    assert top_share > 0.25  # top 10 % of items draw an outsized share
    uniform_share = 0.10
    assert top_share > 2 * uniform_share


def test_no_duplicate_user_item_pairs():
    trace = SyntheticMovieLens(seed=4, scale=0.005)
    assert len(set(trace.events)) == len(trace.events)


def test_user_histories_partition_events():
    trace = SyntheticMovieLens(seed=5, scale=0.005)
    histories = trace.user_histories()
    assert sum(len(h) for h in histories.values()) == len(trace.events)


def test_query_users_weighted_by_activity():
    trace = SyntheticMovieLens(seed=6, scale=0.01)
    histories = trace.user_histories()
    sampled = trace.query_users(2000, random.Random(1))
    counts = Counter(sampled)
    heavy = max(histories, key=lambda u: len(histories[u]))
    light = min(histories, key=lambda u: len(histories[u]))
    assert counts[heavy] > counts.get(light, 0)


# -- injector -------------------------------------------------------------


def test_injector_issues_rate_times_duration_calls():
    loop = EventLoop()
    injector = Injector(loop, random.Random(1), recorder=LatencyRecorder())
    calls = []

    def issue(on_complete):
        calls.append(loop.now)
        on_complete_stub(on_complete)

    def on_complete_stub(cb):
        from repro.client.library import CompletedCall

        cb(CompletedCall(verb="GET", user="u", ok=True, items=[],
                         started_at=loop.now, completed_at=loop.now + 0.01,
                         request_id=1))

    injector.inject(50, 2.0, issue)
    loop.run()
    assert len(calls) == 100
    assert injector.report.issued == 100
    assert injector.report.completed == 100


def test_injector_counts_failures():
    loop = EventLoop()
    injector = Injector(loop, random.Random(1))
    from repro.client.library import CompletedCall

    def issue(on_complete):
        on_complete(CompletedCall(verb="GET", user="u", ok=False, items=[],
                                  started_at=0, completed_at=0, request_id=1))

    injector.inject(10, 1.0, issue)
    loop.run()
    assert injector.report.failed == 10
    assert injector.report.completion_ratio == 0.0


def test_injector_rejects_bad_rate():
    with pytest.raises(ValueError):
        Injector(EventLoop(), random.Random(1)).inject(0, 1.0, lambda cb: None)


def test_arrivals_spread_over_duration():
    loop = EventLoop()
    injector = Injector(loop, random.Random(1))
    times = []
    injector.inject(10, 1.0, lambda cb: times.append(loop.now))
    loop.run()
    assert min(times) < 0.2
    assert max(times) > 0.8


# -- two-phase scenario ----------------------------------------------------


def test_two_phase_scenario_runs_and_reports():
    rng = RngRegistry(seed=9)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    client = DirectClient(loop=loop, network=network, lrs_picker=harness.pick_frontend)
    scenario = TwoPhaseScenario(
        loop=loop,
        rng=rng.stream("scenario"),
        client=client,
        lrs=harness,
        workload=SyntheticMovieLens(seed=9, scale=0.003),
        timings=ScenarioTimings.quick(),
        feedback_rate=100.0,
    )
    result = scenario.run(query_rate=50.0)
    assert result.feedback_report.issued == 400
    assert result.report.completed > 0
    assert not result.saturated
    summary = result.summary()
    assert 0 < summary.median < 0.3
    # Training happened: the engine has a model.
    assert harness.engine.model is not None


def test_paper_timings_match_section8():
    timings = ScenarioTimings.paper()
    assert timings.feedback_seconds == 60.0
    assert timings.query_seconds == 300.0
    assert timings.trim_seconds == 15.0
