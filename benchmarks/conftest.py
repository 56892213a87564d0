"""Shared benchmark settings.

Each benchmark regenerates one of the paper's tables or figures from
scratch.  We use ``benchmark.pedantic`` with a single round: the
interesting output is the reproduced figure (printed to stdout and
checked by shape assertions), not micro-timing of the simulator.

Durations are scaled down from the paper's 1 min + 5 min phases — the
latency *shapes* (feature costs, shuffle behaviour, saturation points)
stabilize well within these windows, and the full-scale settings are a
parameter away (``ScenarioTimings(60.0, 300.0, 15.0)``).
"""

from __future__ import annotations

import pytest

#: Simulated seconds of query injection per micro measurement.
MICRO_DURATION = 20.0
MICRO_TRIM = 5.0
#: Repetitions aggregated per point (paper: 6).
RUNS = 1
SEED = 11


@pytest.fixture
def once(benchmark):
    """Run a figure builder exactly once under the benchmark timer."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
