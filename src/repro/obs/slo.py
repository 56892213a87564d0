"""Declarative SLOs evaluated as multi-window burn rates.

An :class:`Objective` names a measurable promise — goodput ratio, p99
latency ceiling, anonymity floor S*I, shed-rate ceiling, rotation
pause budget — and the :class:`SloEngine` samples its sources on a
virtual-time tick, evaluates every objective over a *long* window (the
whole run) and a *short* trailing window, and renders a machine-
readable verdict (``slo.json``) that experiments and CI gate on.

Burn-rate semantics follow the SRE multi-window multi-burn-rate rule:

* ``ratio`` objectives (good/total counters, e.g. goodput): the burn
  rate is ``bad_fraction / error_budget`` where the budget is
  ``1 - target``.  Burn 1.0 spends the budget exactly; an alert fires
  only when the short window burns at :data:`ALERT_BURN` *and* the long
  window is itself burning (>= 1.0) — a spike that the long window has
  already absorbed stays quiet.
* ``floor`` objectives (sampled value must stay >= target, e.g. the
  anonymity floor): the budget is zero, so the burn rate is simply the
  fraction of samples in breach; any breach in both windows alerts.
* ``ceiling`` objectives (sampled value must end <= target, e.g. p99
  latency, accumulated rotation pause seconds): evaluated on the final
  sample; breach fractions play the burn-rate role.
* run-end objectives (``at_least`` / ``at_most`` / ``equal``, e.g. at
  least one crash injected, zero audit findings): judged once, on a
  value the run reports at its end — never sampled, never alerting,
  burn fields null.  They are what makes ``slo.json`` a run's whole
  verdict: every acceptance check of a drill is one of them.

Alerts are emitted as ``slo`` events with role ``operator`` (the
redaction boundary applies to them like any other event).  Runs with
no live engine — the scale sweep's perf-sensitive hot path, capacity's
legs — evaluate the same objectives statically with
:func:`evaluate_static`; burn fields are null there.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "RUN_END_KINDS",
    "Objective",
    "Measurement",
    "SloReport",
    "SloEngine",
    "evaluate_static",
    "run_end_objectives",
    "histogram_quantile",
    "write_slo",
]


@dataclass(frozen=True)
class Objective:
    """One declarative service-level objective.

    ``kind`` selects the evaluation rule: ``ratio`` (needs ``good`` and
    ``total`` counter sources), ``floor`` or ``ceiling`` (need a
    ``value`` source), or one of :data:`RUN_END_KINDS` (``value`` names
    a run-end value, not a source).  ``target`` is the promise.
    """

    name: str
    kind: str  # "ratio" | "floor" | "ceiling" | one of RUN_END_KINDS
    target: float
    description: str = ""
    good: str = ""
    total: str = ""
    value: str = ""

    def __post_init__(self) -> None:
        if self.kind != "ratio" and self.kind not in _HOLDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "ratio" and (not self.good or not self.total):
            raise ValueError(f"ratio objective {self.name!r} needs good= and total=")
        if self.kind != "ratio" and not self.value:
            raise ValueError(f"{self.kind} objective {self.name!r} needs value=")


#: The short-window burn multiple at which a ratio objective pages.
ALERT_BURN = 2.0

#: Kinds judged once, on a value the run reports at its end.
RUN_END_KINDS = ("at_least", "at_most", "equal")

#: Whether a value keeps a level objective's promise, by kind.
_HOLDS: Dict[str, Callable[[float, float], bool]] = {
    "floor": operator.ge,
    "ceiling": operator.le,
    "at_least": operator.ge,
    "at_most": operator.le,
    "equal": operator.eq,
}


def run_end_objectives(*checks: Tuple[str, str, float, str]) -> List[Objective]:
    """Run-end objectives from ``(value, kind, target, description)``
    rows, each named after the run-end value it judges."""
    return [
        Objective(name=value, kind=kind, target=target, value=value, description=description)
        for value, kind, target, description in checks
    ]


@dataclass
class Measurement:
    """One objective's verdict over the evaluated windows."""

    name: str
    kind: str
    target: float
    value: Optional[float]
    ok: bool
    burn_long: Optional[float] = None
    burn_short: Optional[float] = None
    alert: bool = False
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "value": self.value,
            "ok": self.ok,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "alert": self.alert,
            "description": self.description,
        }


@dataclass
class SloReport:
    """The full verdict for one experiment run."""

    experiment: str
    generated_at: float
    long_window_seconds: float
    short_window_seconds: float
    measurements: List[Measurement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.measurements)

    @property
    def alerts(self) -> int:
        return sum(1 for m in self.measurements if m.alert)

    def objective(self, name: str) -> Measurement:
        for measurement in self.measurements:
            if measurement.name == name:
                return measurement
        raise KeyError(f"no objective named {name!r} in this report")

    def problems(self) -> List[str]:
        return [
            f"{self.experiment} {m.name}: {m.description}"
            f" (value {m.value!r} violates {m.kind} target {m.target})"
            for m in self.measurements
            if not m.ok
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "generated_at": self.generated_at,
            "long_window_seconds": self.long_window_seconds,
            "short_window_seconds": self.short_window_seconds,
            "ok": self.ok,
            "alerts": self.alerts,
            "objectives": [m.to_dict() for m in self.measurements],
        }


def write_slo(report: SloReport, out_dir: str, basename: str = "slo") -> str:
    """Write the deterministic ``slo.json`` verdict; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{basename}.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def histogram_quantile(histogram: Any, quantile: float) -> Optional[float]:
    """Linear-interpolated quantile from a telemetry Histogram.

    Works on anything exposing ``cumulative_buckets() ->
    [(bound, cumulative_count), ...]`` ending in the implicit
    ``(inf, total)`` bucket.  Observations in the overflow bucket
    report the largest finite bound (the histogram cannot see higher).
    """
    pairs = histogram.cumulative_buckets()
    if not pairs:
        return None
    total = pairs[-1][1]
    if total <= 0:
        return None
    rank = quantile * total
    previous_bound = 0.0
    previous_cum = 0
    for bound, cumulative in pairs:
        if cumulative >= rank:
            if math.isinf(bound) or cumulative == previous_cum:
                return previous_bound if math.isinf(bound) else bound
            fraction = (rank - previous_cum) / (cumulative - previous_cum)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_cum = bound, cumulative
    return previous_bound


class SloEngine:
    """Samples named sources on a virtual-time tick; evaluates objectives.

    Sources are zero-argument callables returning a float (or None to
    skip the sample).  ``attach`` hooks the tick into an event loop the
    same way the telemetry Scraper does: the tick re-arms only while
    events are pending, so it never keeps a finished run alive.
    """

    def __init__(
        self,
        interval: float = 0.25,
        short_window: float = 2.0,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.interval = interval
        self.short_window = short_window
        self.telemetry = telemetry
        self._sources: Dict[str, Callable[[], Optional[float]]] = {}
        #: (virtual time, {source: value}) rows, in sample order.
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._loop: Optional[Any] = None
        self._until: Optional[float] = None

    def track(self, key: str, source: Callable[[], Optional[float]]) -> None:
        """Register a sampled source under *key*."""
        self._sources[key] = source

    def attach(self, loop: Any, until: Optional[float] = None) -> None:
        """Start sampling on *loop*'s virtual clock.

        Pass *until* (the run's drain horizon) whenever another
        self-re-arming sampler shares the loop — e.g. the telemetry
        Scraper: two tickers that each re-arm while the loop has
        pending work would keep each other alive and ``loop.run()``
        would never drain.  A bounded engine stops re-arming past
        *until*; :meth:`evaluate` still takes its final sample.
        """
        self._loop = loop
        self._until = until
        self.sample_now()
        self._arm()

    def _arm(self) -> None:
        if self._loop is None or self._loop.pending <= 0:
            return
        if self._until is not None and self._loop.now >= self._until:
            return
        self._loop.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self.sample_now()
        self._arm()

    def sample_now(self, now: Optional[float] = None) -> None:
        """Take one sample row at *now* (defaults to the loop clock)."""
        if now is None:
            now = self._loop.now if self._loop is not None else 0.0
        row: Dict[str, float] = {}
        for key, source in self._sources.items():
            value = source()
            if value is not None:
                row[key] = float(value)
        self.samples.append((now, row))

    # -- evaluation ------------------------------------------------------

    def _series(self, key: str) -> List[Tuple[float, float]]:
        return [(when, row[key]) for when, row in self.samples if key in row]

    @staticmethod
    def _window_delta(series: Sequence[Tuple[float, float]], start: float) -> float:
        """Counter increase across ``[start, end]`` of *series*."""
        if not series:
            return 0.0
        baseline = series[0][1]
        for when, value in series:
            if when > start:
                break
            baseline = value
        return series[-1][1] - baseline

    def _ratio_measurement(self, objective: Objective, short_start: float) -> Measurement:
        good = self._series(objective.good)
        total = self._series(objective.total)
        budget = max(1e-9, 1.0 - objective.target)

        def window_ratio(start: float) -> Optional[float]:
            total_delta = self._window_delta(total, start)
            if total_delta <= 0:
                return None
            return self._window_delta(good, start) / total_delta

        long_ratio = window_ratio(float("-inf"))
        short_ratio = window_ratio(short_start)
        value = long_ratio if long_ratio is not None else 1.0
        burn_long = (1.0 - value) / budget
        burn_short = None if short_ratio is None else (1.0 - short_ratio) / budget
        alert = (
            burn_short is not None
            and burn_short >= ALERT_BURN
            and burn_long >= 1.0
        )
        return Measurement(
            name=objective.name,
            kind=objective.kind,
            target=objective.target,
            value=value,
            ok=value >= objective.target,
            burn_long=burn_long,
            burn_short=burn_short,
            alert=alert,
            description=objective.description,
        )

    def _level_measurement(self, objective: Objective, short_start: float) -> Measurement:
        series = self._series(objective.value)
        if not series:
            return Measurement(
                name=objective.name,
                kind=objective.kind,
                target=objective.target,
                value=None,
                ok=False,
                description=objective.description + " (no samples)",
            )
        values = [value for _, value in series]
        short_values = [value for when, value in series if when >= short_start]
        if objective.kind == "floor":
            value = min(values)
            ok = value >= objective.target
            breached = lambda v: v < objective.target  # noqa: E731
        else:  # ceiling: judged on where the run ended up
            value = values[-1]
            ok = value <= objective.target
            breached = lambda v: v > objective.target  # noqa: E731
        burn_long = sum(1 for v in values if breached(v)) / len(values)
        burn_short = (
            sum(1 for v in short_values if breached(v)) / len(short_values)
            if short_values
            else None
        )
        alert = burn_long > 0.0 and bool(burn_short)
        return Measurement(
            name=objective.name,
            kind=objective.kind,
            target=objective.target,
            value=value,
            ok=ok,
            burn_long=burn_long,
            burn_short=burn_short,
            alert=alert,
            description=objective.description,
        )

    def evaluate(
        self,
        objectives: Sequence[Objective],
        experiment: str,
        values: Optional[Dict[str, Any]] = None,
    ) -> SloReport:
        """Final sample + verdict; emits operator alert/verdict events.

        Run-end objectives read *values* (the run's end-of-run summary)
        instead of the samples."""
        now = self._loop.now if self._loop is not None else (
            self.samples[-1][0] if self.samples else 0.0
        )
        self.sample_now(now)
        first = self.samples[0][0] if self.samples else now
        short_start = max(first, now - self.short_window)
        report = SloReport(
            experiment=experiment,
            generated_at=now,
            long_window_seconds=now - first,
            short_window_seconds=self.short_window,
        )
        for objective in objectives:
            if objective.kind == "ratio":
                measurement = self._ratio_measurement(objective, short_start)
            elif objective.kind in RUN_END_KINDS:
                measurement = _judge_once(objective, values or {})
            else:
                measurement = self._level_measurement(objective, short_start)
            report.measurements.append(measurement)
            self._emit_alert(experiment, measurement)
        self._emit_verdict(report)
        return report

    def _emit_alert(self, experiment: str, measurement: Measurement) -> None:
        if self.telemetry is None or not measurement.alert:
            return
        self.telemetry.event_log.emit(
            "slo",
            "operator",
            {
                "event": "slo_alert",
                "experiment": experiment,
                "objective": measurement.name,
                "objective_kind": measurement.kind,
                "target": measurement.target,
                "observed": measurement.value,
                "burn_long": measurement.burn_long,
                "burn_short": measurement.burn_short,
            },
        )

    def _emit_verdict(self, report: SloReport) -> None:
        if self.telemetry is None:
            return
        self.telemetry.event_log.emit(
            "slo",
            "operator",
            {
                "event": "slo_verdict",
                "experiment": report.experiment,
                "ok": report.ok,
                "alerts": report.alerts,
                "objectives": len(report.measurements),
            },
        )


def _judge_once(objective: Objective, values: Dict[str, Any]) -> Measurement:
    """A level or run-end objective judged on one reported value (a
    missing or null value fails closed); burn fields stay null."""
    raw = values.get(objective.value)
    value = None if raw is None else float(raw)
    return Measurement(
        name=objective.name,
        kind=objective.kind,
        target=objective.target,
        value=value,
        ok=value is not None and _HOLDS[objective.kind](value, objective.target),
        description=objective.description,
    )


def evaluate_static(
    objectives: Sequence[Objective],
    values: Dict[str, Any],
    experiment: str,
    generated_at: float = 0.0,
) -> SloReport:
    """Evaluate objectives against point-in-time values (no live engine).

    Used where attaching a sampler would perturb a perf-sensitive hot
    path (the scale sweep) and where no engine watched the run
    (capacity's legs): ratio objectives read ``good``/``total`` totals
    from *values*, every other kind reads ``value``; burn fields stay
    null.
    """
    report = SloReport(
        experiment=experiment,
        generated_at=generated_at,
        long_window_seconds=0.0,
        short_window_seconds=0.0,
    )
    for objective in objectives:
        if objective.kind != "ratio":
            report.measurements.append(_judge_once(objective, values))
            continue
        total = values.get(objective.total, 0.0)
        good = values.get(objective.good, 0.0)
        value = (good / total) if total > 0 else 1.0
        report.measurements.append(
            Measurement(
                name=objective.name,
                kind=objective.kind,
                target=objective.target,
                value=value,
                ok=value >= objective.target,
                description=objective.description,
            )
        )
    return report
