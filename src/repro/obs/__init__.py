"""Observability layer: causal tracing, profiling, and SLO verdicts.

Three pillars, built so that watching the system never weakens it:

* :mod:`repro.obs.tracewire` / :mod:`repro.obs.causal` — a fixed-width
  ``trace`` wire field carried client->UA and *deliberately severed* at
  the shuffle boundary.  Post-shuffle work is attributed to batch-level
  spans linked to client spans only through aggregate fan-in counts;
  a trace id that crossed the shuffler would be a linkage channel.
* :mod:`repro.obs.profiler` — a deterministic virtual-time profiler
  that wraps either simnet engine and attributes events to causal
  scheduling stacks, emitting a mergeable profile artifact plus a
  collapsed-stack flamegraph, byte-identical across same-seed runs.
* :mod:`repro.obs.slo` — declarative service-level objectives evaluated
  as multi-window burn rates over sampled sources, emitting operator
  alert events and a machine-readable ``slo.json`` verdict.
"""

from __future__ import annotations

from repro.obs.causal import CausalTracer, instrument_causal
from repro.obs.profiler import ProfiledLoop, merge_profiles, write_profile
from repro.obs.smoke import (
    obs_slo_objectives,
    run_obs_scenario,
    write_obs_artifacts,
)
from repro.obs.slo import (
    RUN_END_KINDS,
    Measurement,
    Objective,
    SloEngine,
    SloReport,
    evaluate_static,
    histogram_quantile,
    write_slo,
)
from repro.obs.tracewire import (
    TRACE_FIELD,
    TRACE_PREFIX,
    TRACE_WIDTH,
    decode_trace,
    encode_trace_id,
    looks_like_trace_id,
    stamp_trace,
)

__all__ = [
    "CausalTracer",
    "instrument_causal",
    "run_obs_scenario",
    "obs_slo_objectives",
    "write_obs_artifacts",
    "ProfiledLoop",
    "merge_profiles",
    "write_profile",
    "RUN_END_KINDS",
    "Measurement",
    "Objective",
    "SloEngine",
    "SloReport",
    "evaluate_static",
    "histogram_quantile",
    "write_slo",
    "TRACE_FIELD",
    "TRACE_PREFIX",
    "TRACE_WIDTH",
    "decode_trace",
    "encode_trace_id",
    "looks_like_trace_id",
    "stamp_trace",
]
