"""The :class:`Telemetry` facade: one handle plumbed through the stack.

A :class:`Telemetry` owns the tracer, the metric registry, the event
log, and the scraper, and survives across the multiple
``EventLoop`` instances an experiment sweep creates (one per run):
:meth:`bind` re-points the virtual clocks at each fresh loop, while
instruments and accumulated events carry over so the final artifact
covers the whole sweep.

Per-run artifacts land under ``results/`` as a JSONL event log plus a
Prometheus text-format metrics dump; :meth:`audit` re-checks every
recorded event against the redaction policy (the adversary's-eye
pass), and :meth:`render_summary` gives the human-readable digest the
report module embeds.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.events import EventLog
from repro.telemetry.redaction import DEFAULT_POLICY, RedactionPolicy, Violation, audit_events
from repro.telemetry.registry import MetricRegistry, Scraper
from repro.telemetry.spans import PIPELINE_STAGES, Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Facade bundling tracer + registry + event log + scraper."""

    def __init__(
        self,
        policy: Optional[RedactionPolicy] = None,
        scrape_interval: float = 1.0,
        emit_snapshots: bool = False,
        max_active_traces: int = 8192,
    ) -> None:
        self.policy = policy or DEFAULT_POLICY
        self.scrape_interval = scrape_interval
        self.emit_snapshots = emit_snapshots
        self._clock: Callable[[], float] = lambda: 0.0
        self.event_log = EventLog(clock=self.now, policy=self.policy)
        self.registry = MetricRegistry()
        self.tracer = Tracer(
            clock=self.now, event_log=self.event_log, max_active=max_active_traces
        )
        self.scraper: Optional[Scraper] = None
        self.run_label = ""

    # -- virtual time ----------------------------------------------------

    def now(self) -> float:
        return self._clock()

    # -- lifecycle -------------------------------------------------------

    def bind(self, loop: Any, run_label: str = "") -> None:
        """Attach to a (fresh) event loop; restarts the scraper."""
        # Tracer and log read the loop directly: they ask the time some
        # fourteen times per request, and ``now()`` is two frames deeper.
        self._clock = clock = lambda: loop.now
        self.tracer.bind(clock)
        self.event_log.clock = clock
        self.run_label = run_label
        self.event_log.run_label = run_label
        if self.scraper is not None:
            self.scraper.stop()
            self.scraper.bind(loop)
        else:
            self.scraper = Scraper(
                loop=loop,
                registry=self.registry,
                interval=self.scrape_interval,
                event_log=self.event_log,
                emit_snapshots=self.emit_snapshots,
            )
        self.scraper.start()
        self.event_log.emit("run", "operator", {"phase": "start", "label": run_label})

    def finalize_run(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Close out the bound run: stop scraping, snapshot metrics."""
        if self.scraper is not None:
            self.scraper.stop()
        payload: Dict[str, Any] = {
            "phase": "end",
            "label": self.run_label,
            "traces_started": self.tracer.traces_started,
            "traces_completed": self.tracer.traces_completed,
            "traces_abandoned": self.tracer.traces_abandoned,
            "metrics": self.registry.snapshot(),
        }
        if extra:
            payload.update(extra)
        self.event_log.emit("run", "operator", payload)

    def emit_fault(self, role: str, payload: Dict[str, Any]) -> None:
        """Record a chaos/fault event (instance failure, ejection, ...)."""
        self.event_log.emit("fault", role, payload)

    # -- privacy audit ---------------------------------------------------

    def audit(self) -> List[Violation]:
        """Adversary's-eye re-scan of every recorded event.

        Returns violations found in the *stored* events; a clean
        pipeline returns ``[]`` even though the boundary would already
        have scrubbed (and recorded) anything caught at emission time.
        """
        return audit_events(
            (event.to_dict() for event in self.event_log.events), self.policy
        )

    @property
    def boundary_violations(self) -> List[Violation]:
        """Leaks caught (and scrubbed) at emission time."""
        return self.event_log.violations

    # -- artifacts -------------------------------------------------------

    def write_artifact(self, directory: str, basename: str = "telemetry") -> Dict[str, str]:
        """Write the JSONL event log + Prometheus dump under *directory*."""
        os.makedirs(directory, exist_ok=True)
        jsonl_path = os.path.join(directory, f"{basename}.jsonl")
        prom_path = os.path.join(directory, f"{basename}.prom")
        self.event_log.write_jsonl(jsonl_path)
        with open(prom_path, "w", encoding="utf-8") as handle:
            handle.write(self.registry.render_prometheus())
        return {"events": jsonl_path, "metrics": prom_path}

    # -- rendering -------------------------------------------------------

    def render_summary(self) -> str:
        """Human-readable digest: traces, stages, privacy health."""
        lines = ["telemetry summary", "================="]
        tracer = self.tracer
        lines.append(
            f"traces: {tracer.traces_completed} complete,"
            f" {tracer.traces_abandoned} abandoned,"
            f" {tracer.active_count} in flight"
        )
        # Only complete traces are folded, so every stage has the same n.
        if tracer.stage_totals[PIPELINE_STAGES[0]][0]:
            lines.append(f"{'stage':14s} {'mean_ms':>10s} {'max_ms':>10s} {'n':>8s}")
            for stage in PIPELINE_STAGES:
                count, total, longest = tracer.stage_totals[stage]
                lines.append(
                    f"{stage:14s} {1e3 * total / count:10.3f}"
                    f" {1e3 * longest:10.3f} {count:8d}"
                )
        for gauge_name in (
            "pprox_shuffle_batch_fill",
            "pprox_effective_anonymity_set",
            "pprox_shuffle_time_to_flush_seconds",
        ):
            instrument = self.registry.get(gauge_name)
            if instrument is not None:
                lines.append(f"{gauge_name} = {instrument.value():.3f}")
        lines.append(
            f"events: {len(self.event_log)} recorded,"
            f" {len(self.event_log.violations)} boundary redactions"
        )
        return "\n".join(lines)
