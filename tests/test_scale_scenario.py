"""The million-user scale sweep: completeness, parity, determinism."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import scale
from repro.experiments.scale import ScaleConfig, run_scale_sweep, scale_slo_verdict
from tests.conftest import objective
from tests.oracles.heap_event_loop import HeapEventLoop

#: Miniature sweep: the full pipeline shape at test-suite cost.
TINY = ScaleConfig(users=50_000, pairs_sweep=(1, 2), rate_per_pair=10_000.0,
                   duration=1.0, trim=0.25)


@pytest.fixture(scope="module")
def sweep():
    artifact, meta = run_scale_sweep(TINY)
    return artifact, meta


def test_every_request_completes_within_deadline(sweep):
    artifact, _ = sweep
    for point in artifact["points"]:
        assert point["issued"] > 0
        assert point["completed"] == point["issued"]
        assert point["expired"] == 0


def test_throughput_scales_with_pairs(sweep):
    artifact, _ = sweep
    first, second = artifact["points"]
    assert second["offered_rps"] == 2 * first["offered_rps"]
    assert second["completed"] >= 1.9 * first["completed"]
    # Latency must not collapse when the pool doubles (Figure-8 claim:
    # capacity scales with proxy pairs).
    assert second["latency"]["median"] < 2 * first["latency"]["median"]


def test_population_and_shuffling_are_exercised(sweep):
    artifact, _ = sweep
    for point in artifact["points"]:
        assert 0 < point["unique_users"] <= TINY.users
        assert point["shuffle_flushes"] > 0
        assert 1 <= point["min_flush_fill"] <= TINY.shuffle_size


def test_latency_summary_is_sane(sweep):
    artifact, _ = sweep
    for point in artifact["points"]:
        latency = point["latency"]
        assert 0 < latency["p25"] <= latency["median"] <= latency["p75"] <= latency["max"]
        assert latency["median"] < TINY.deadline
        assert latency["window_count"] > 0


def test_static_verdict_holds_over_the_sweeps_own_artifact(sweep):
    artifact, _ = sweep
    report = scale_slo_verdict(artifact)
    assert report.ok and report.experiment == "scale"
    assert objective(report, "anonymity_floor").ok
    assert objective(report, "p99_latency_seconds").target == TINY.deadline


def test_meta_reports_wall_clock_numbers(sweep):
    _, meta = sweep
    assert meta["total_events"] > 0
    for point_meta in meta["points"]:
        assert point_meta["events_per_second"] > 0
        assert point_meta["peak_pending"] > 0


def test_artifact_is_byte_identical_across_engines(sweep, monkeypatch):
    """``scale.json`` depends on the ``(time, sequence)`` contract, not
    on the calendar queue: the seed's heap loop writes the same bytes."""
    calendar_artifact, _ = sweep
    heap_loops = []

    def heap_loop():
        heap_loops.append(HeapEventLoop())
        return heap_loops[-1]

    monkeypatch.setattr(scale, "EventLoop", heap_loop)
    heap_artifact, _ = run_scale_sweep(TINY)
    assert len(heap_loops) == len(TINY.pairs_sweep)
    assert all(loop.events_processed > 0 for loop in heap_loops)
    assert (
        json.dumps(calendar_artifact, sort_keys=True)
        == json.dumps(heap_artifact, sort_keys=True)
    )


def test_same_seed_runs_are_identical(sweep):
    artifact, _ = sweep
    again, _ = run_scale_sweep(TINY)
    assert json.dumps(artifact, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_seed_changes_the_traffic():
    artifact, _ = run_scale_sweep(dataclasses.replace(TINY, pairs_sweep=(1,), seed=1))
    other, _ = run_scale_sweep(dataclasses.replace(TINY, pairs_sweep=(1,), seed=2))
    assert artifact["points"][0]["latency"] != other["points"][0]["latency"]
