"""The :class:`Telemetry` facade: one handle plumbed through the stack.

A :class:`Telemetry` owns the tracer (the one
:class:`~repro.obs.causal.CausalTracer`), the metric registry, the
event log, and the scraper, and survives across the multiple
``EventLoop`` instances an experiment sweep creates (one per run):
:meth:`bind` re-points the virtual clocks at each fresh loop, while
instruments and the event log's stream carry over so the artifact
covers the whole sweep.

The event log keeps no record.  A hub whose run writes an artifact
opens it first (:meth:`open_artifact`): each record then goes to the
JSONL file as it is emitted, and :meth:`close_artifact` adds the
Prometheus text-format metrics dump and closes the file.  A hub with no
stream only counts records.  :meth:`audit` returns what the stream's
re-check of each written record found (the adversary's-eye pass), and
:meth:`render_summary` gives the human-readable digest the report
module embeds.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Collection, Dict, List, Optional, TextIO

from repro.obs.causal import PIPELINE_STAGES, CausalTracer
from repro.telemetry.events import EventLog, JsonlSink
from repro.telemetry.redaction import Violation
from repro.telemetry.registry import MetricRegistry, Scraper

__all__ = ["Telemetry"]


class Telemetry:
    """Facade bundling tracer + registry + event log + scraper."""

    def __init__(self, scrape_interval: float = 1.0) -> None:
        self.scrape_interval = scrape_interval
        self._clock: Callable[[], float] = lambda: 0.0
        self.event_log = EventLog(clock=self.now)
        self.registry = MetricRegistry()
        self.tracer = CausalTracer(clock=self.now, event_log=self.event_log)
        self.scraper: Optional[Scraper] = None
        self.run_label = ""
        #: Directory of the artifact :meth:`open_artifact` opened.
        self._artifact_dir = ""

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
        self.scraper = Scraper(loop=loop, registry=self.registry, interval=self.scrape_interval)
        self.scraper.start()
        self.event_log.emit("run", "operator", {"phase": "start", "label": run_label})

    def finalize_run(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Close out the bound run: stop scraping, write the per-stage
        totals and a metric snapshot in the run-end record."""
        if self.scraper is not None:
            self.scraper.stop()
        payload: Dict[str, Any] = {
            "phase": "end",
            "label": self.run_label,
            "traces_started": self.tracer.traces_started,
            "traces_completed": self.tracer.traces_completed,
            "traces_abandoned": self.tracer.traces_abandoned,
            "stage_totals": {
                stage: list(totals) for stage, totals in self.tracer.stage_totals.items()
            },
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
        """Adversary's-eye re-check of every record the stream wrote.

        Each record is re-scanned as it is handed to the sink, written
        or not, so this covers every record the artifact could hold: a
        clean pipeline returns ``[]`` even though the boundary already
        scrubbed (and recorded, in ``event_log.violations``) anything
        caught at emission time.  A hub with no sink built no record
        and returns ``[]``.
        """
        sink = self.event_log.sink
        return list(sink.leaks) if sink is not None else []

    # -- artifacts -------------------------------------------------------

    def stream_to(
        self, stream: Optional[TextIO], kinds: Optional[Collection[str]] = None
    ) -> None:
        """Build and re-check every record from now on, and write it (of
        *kinds*, if given) to the text *stream*, one JSONL line each, as
        it is emitted; with no *stream*, write none.  What an earlier
        sink's re-check found stays in :meth:`audit`."""
        earlier = self.event_log.sink
        self.event_log.sink = sink = JsonlSink(stream, kinds)
        if earlier is not None:
            sink.leaks = earlier.leaks

    def open_artifact(self, directory: str) -> None:
        """Stream the event log to ``telemetry.jsonl`` under *directory*;
        :meth:`close_artifact` writes ``telemetry.prom`` beside it."""
        os.makedirs(directory, exist_ok=True)
        self._artifact_dir = directory
        self.stream_to(open(os.path.join(directory, "telemetry.jsonl"), "w", encoding="utf-8"))

    def close_artifact(self) -> Dict[str, str]:
        """Close the event stream :meth:`open_artifact` opened and write
        the Prometheus dump; returns both paths."""
        self.event_log.sink.stream.close()
        jsonl_path = os.path.join(self._artifact_dir, "telemetry.jsonl")
        prom_path = os.path.join(self._artifact_dir, "telemetry.prom")
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
            f"events: {len(self.event_log)} emitted,"
            f" {len(self.event_log.violations)} boundary redactions"
        )
        return "\n".join(lines)
