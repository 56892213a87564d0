"""Two-phase experiment scenario (paper §8, "Metrics and workload").

"In all of our experiments, we proceed in two phases: We inject
feedback for one minute and trigger the training phase of UR in a
first phase, and collect recommendations for a duration of 5 minutes
in a second phase. ... We trim the first and last 15 seconds of each
measurement period."

:class:`ScenarioTimings` carries those durations; the defaults are a
faithfully-shaped but scaled-down version (the simulator's virtual
minutes are free, but the host's crypto and event processing are
not, and the paper's shapes emerge well before 5 virtual minutes).
``ScenarioTimings.paper()`` returns the full-scale values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.simnet.clock import EventLoop
from repro.simnet.metrics import CandlestickSummary, LatencyRecorder, trim_window
from repro.telemetry.types import TelemetryLike
from repro.workload.injector import InjectionReport, Injector
from repro.workload.movielens import SyntheticMovieLens

__all__ = ["ScenarioTimings", "TwoPhaseScenario", "ScenarioResult", "is_saturated"]

#: Virtual seconds in-flight requests get after the query phase ends.
DRAIN_SECONDS = 5.0


class _ClientLike(Protocol):
    def post(self, user: str, item: str, payload=None, client_address=None, on_complete=None) -> None: ...
    def get(self, user: str, client_address=None, on_complete=None) -> None: ...


class _TrainableLrs(Protocol):
    def train(self) -> None: ...


@dataclass(frozen=True)
class ScenarioTimings:
    """Durations of the two phases and the trim window."""

    feedback_seconds: float = 20.0
    query_seconds: float = 40.0
    trim_seconds: float = 8.0

    @classmethod
    def paper(cls) -> "ScenarioTimings":
        """The full-scale timings of §8."""
        return cls(feedback_seconds=60.0, query_seconds=300.0, trim_seconds=15.0)

    @classmethod
    def quick(cls) -> "ScenarioTimings":
        """Short timings for unit/integration tests."""
        return cls(feedback_seconds=4.0, query_seconds=10.0, trim_seconds=2.0)


def is_saturated(reports: Iterable[InjectionReport], window_latencies: Sequence[float]) -> bool:
    """The paper's saturation cut-off, over one run or several.

    A configuration is saturated when queues grow without bound:
    completions fall behind in any run, or the median latency inside
    the trimmed window exceeds 600 ms (twice the SLO median).
    """
    if any(report.issued and report.completion_ratio < 0.95 for report in reports):
        return True
    if not window_latencies:
        return True
    return sorted(window_latencies)[len(window_latencies) // 2] > 0.6


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    recorder: LatencyRecorder
    report: InjectionReport
    window: Tuple[float, float]
    feedback_report: InjectionReport

    def trimmed_latencies(self) -> List[float]:
        """Latencies inside the trimmed measurement window."""
        return self.recorder.trimmed(*self.window)

    def summary(self) -> CandlestickSummary:
        """Candlestick over the trimmed window."""
        return self.recorder.summarize(self.trimmed_latencies())

    @property
    def saturated(self) -> bool:
        """This run alone against :func:`is_saturated`."""
        return is_saturated([self.report], self.trimmed_latencies())


@dataclass
class TwoPhaseScenario:
    """Drives feedback injection, training, and the query phase."""

    loop: EventLoop
    rng: random.Random
    client: _ClientLike
    lrs: _TrainableLrs
    workload: SyntheticMovieLens
    timings: ScenarioTimings = field(default_factory=ScenarioTimings)
    feedback_rate: float = 250.0
    #: Optional :class:`repro.telemetry.Telemetry` hub: phase
    #: transitions land in the structured event log and the query
    #: injector feeds the latency histogram.
    telemetry: Optional[TelemetryLike] = None

    def _emit_phase(self, phase: str, **payload) -> None:
        if self.telemetry is not None:
            self.telemetry.event_log.emit("phase", "operator", {"phase": phase, **payload})

    def run(self, query_rate: float) -> ScenarioResult:
        """Run both phases at *query_rate* gets per second."""
        feedback_injector = Injector(self.loop, self.rng, recorder=LatencyRecorder("posts"))
        self._emit_phase("feedback", rate=self.feedback_rate,
                         duration=self.timings.feedback_seconds)
        events = list(self.workload.feedback_stream())
        cursor = {"index": 0}

        def issue_post(on_complete) -> None:
            user, item = events[cursor["index"] % len(events)]
            cursor["index"] += 1
            self.client.post(user, item, on_complete=on_complete)

        feedback_injector.inject(
            self.feedback_rate, self.timings.feedback_seconds, issue_post
        )
        self.loop.run()
        self._emit_phase("train")
        self.lrs.train()

        query_injector = Injector(self.loop, self.rng, recorder=LatencyRecorder("gets"))
        if self.telemetry is not None:
            from repro.telemetry.instruments import instrument_injector

            instrument_injector(self.telemetry, query_injector)
        self._emit_phase("query", rate=query_rate, duration=self.timings.query_seconds)
        query_count = int(query_rate * self.timings.query_seconds) + 1
        users = self.workload.query_users(query_count, self.rng)
        user_cursor = {"index": 0}

        def issue_get(on_complete) -> None:
            user = users[user_cursor["index"] % len(users)]
            user_cursor["index"] += 1
            self.client.get(user, on_complete=on_complete)

        phase_start = self.loop.now
        start, end = query_injector.inject(query_rate, self.timings.query_seconds,
                                           issue_get, start_at=phase_start)
        self.loop.run()
        # Allow in-flight requests to drain before closing the books.
        self.loop.run_until(end + DRAIN_SECONDS)
        self.loop.run()
        self._emit_phase("drain_complete", completed=query_injector.report.completed)

        window = trim_window(start, end, self.timings.trim_seconds)
        return ScenarioResult(
            recorder=query_injector.recorder,
            report=query_injector.report,
            window=window,
            feedback_report=feedback_injector.report,
        )
