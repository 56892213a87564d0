"""Open-loop injector: arrivals made as they come due, same instants.

``tests/oracles/injector_reference.py`` keeps the upfront loop that
posted a whole phase before its first arrival fired; the injector must
fire at exactly its instants, in its order, after exactly its draws.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.simnet.clock import EventLoop
from repro.workload.injector import Injector, _arrival_count
from tests.oracles.injector_reference import UpfrontInjector


def _run_two_phases(injector_type, seed, first, second, jitter):
    """Two injectors on one loop drawing from one stream; the fire trace."""
    loop = EventLoop()
    rng = random.Random(seed)
    trace = []
    injectors = []
    for tag, (rate, duration, start) in enumerate((first, second)):
        injector = injector_type(loop, rng, jitter_seconds=jitter)
        injector.inject(rate, duration, lambda done, tag=tag: trace.append((tag, loop.now)),
                        start_at=start)
        injectors.append(injector)
    drawn = rng.getstate()
    loop.run()
    return trace, drawn, rng.getstate(), [injector.report.issued for injector in injectors]


_phase = st.tuples(
    st.floats(min_value=0.5, max_value=5_000.0),  # rate
    st.floats(min_value=0.0, max_value=2.0),  # duration
    st.floats(min_value=0.0, max_value=50.0),  # start
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    first=_phase,
    second=_phase,
    jitter=st.floats(min_value=1e-6, max_value=0.05),
)
# Jitter ten times the interval: instants arrive out of index order.
@example(seed=7, first=(5_000.0, 1.0, 0.0), second=(250.0, 2.0, 0.5), jitter=0.002)
# The default jitter exactly one interval, as on the e2e ledger.
@example(seed=8, first=(1_000.0, 2.0, 3.0), second=(1_000.0, 2.0, 3.0), jitter=0.001)
def test_injector_fires_at_the_upfront_loops_instants(seed, first, second, jitter):
    for rate, duration, _ in (first, second):
        assume(int(rate * duration) == _arrival_count(rate, duration))
    made_when_due = _run_two_phases(Injector, seed, first, second, jitter)
    upfront = _run_two_phases(UpfrontInjector, seed, first, second, jitter)
    assert made_when_due == upfront


def test_a_phase_keeps_one_arrival_pending():
    loop = EventLoop()
    injector = Injector(loop, random.Random(5))
    injector.inject(1_000.0, 50.0, lambda done: None)
    assert loop.queue_stats()["peak_pending"] == 1
    loop.run()
    assert injector.report.issued == 50_000
    assert loop.queue_stats()["peak_pending"] == 1


@pytest.mark.parametrize("rate", [7, 25, 100, 200, 250, 1000])
def test_a_phase_of_n_over_rate_seconds_is_n_calls(rate):
    assert [n for n in range(20_001) if _arrival_count(rate, n / rate) != n] == []


@pytest.mark.parametrize("rate, seconds, calls", [
    (100, 9.2, 920),  # int(100 * 9.2) == 919
    (100, 2.3, 230),
    (200, 2.05, 410),
    (100, 4.6, 460),
    (100, 0.0155, 1),  # not near an integer: floored
    (3, 1.0, 3),
])
def test_float_rounding_never_drops_an_arrival(rate, seconds, calls):
    loop = EventLoop()
    injector = Injector(loop, random.Random(3))
    injector.inject(rate, seconds, lambda done: None)
    loop.run()
    assert injector.report.issued == calls
