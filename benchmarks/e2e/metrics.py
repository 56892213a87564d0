"""From the passes' raw output to the metrics ``BENCHMARK.json`` names.

End-to-end metrics come from the untraced full-size pass.  Per-layer
metrics come from a traced pass and an untraced *reference* pass of the
same (quarter) size run side by side; host microseconds are per
completed request and are *self* times, so over one workload the
``*_us`` layer metrics add up to the traced run's wall time per request.
Every host time is at the reference box's quiet speed (``hostclock.py``).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["end_to_end", "per_layer", "failures", "transparent", "LAYER_TIME_METRICS"]

Metric = Dict[str, Any]

#: Span names (see ``harness.py``/``tracing.py``) behind each layer-time
#: metric.  Every span name appears exactly once, so the metrics
#: partition the timed wall time; ``simnet.self_us`` also takes the
#: loop's dispatch time outside any span.
LAYER_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "client.encode_us": ("client.encode",),
    "client.decode_us": ("client.decode",),
    "client.dispatch_us": ("client.call", "cb.client"),
    "crypto.asym_decrypt_us": ("crypto.asym_decrypt",),
    "crypto.asym_encrypt_us": ("crypto.asym_encrypt",),
    "crypto.sym_encrypt_us": ("crypto.sym_encrypt",),
    "crypto.sym_decrypt_us": ("crypto.sym_decrypt",),
    "crypto.pseudonymize_us": ("crypto.pseudonymize",),
    "rest.encode_us": ("rest.encode",),
    "rest.decode_us": ("rest.decode",),
    "rest.pack_us": ("rest.pack",),
    "proxy.ua_request_self_us": ("proxy.ua_request",),
    "proxy.ua_response_self_us": ("proxy.ua_response",),
    "proxy.ia_request_self_us": ("proxy.ia_request",),
    "proxy.ia_response_self_us": ("proxy.ia_response",),
    "envelope.seal_us": ("envelope.seal",),
    "envelope.open_us": ("envelope.open",),
    "shuffler.add_self_us": ("shuffler.add", "cb.shuffler"),
    "layers.self_us": ("layers.receive", "layers.release", "cb.layers"),
    "lrs.handle_us": ("lrs.handle", "cb.lrs"),
    "simnet.self_us": ("simnet.schedule", "simnet.send", "simnet.submit", "cb.simnet"),
    "telemetry.self_us": ("telemetry.trace", "cb.telemetry"),
    "workload.inject_us": ("cb.workload", "workload.complete"),
    "python.gc_us": ("python.gc",),
}
#: Root spans whose owner could not be named: the unattributed rest.
_UNATTRIBUTED = ("cb.other",)


def _metric(value: float, unit: str, **extra: Any) -> Metric:
    return {"value": value, "unit": unit, **extra}


def _wall_us_per_req(run: Dict[str, Any]) -> Metric:
    """Median over the K segments; the mean of the phase medians where
    a workload has two phases."""
    phases = [phase["us_per_req"] for phase in run["phases"]]
    return _metric(
        statistics.fmean(phase["median"] for phase in phases),
        "us",
        q1=statistics.fmean(phase["q1"] for phase in phases),
        q3=statistics.fmean(phase["q3"] for phase in phases),
        k=sum(phase["k"] for phase in phases),
    )


def failures(run: Dict[str, Any]) -> Tuple[int, int]:
    """``(attempted, failed)``: failed + never completed + oracle mismatches."""
    attempted = sum(phase["issued"] for phase in run["phases"])
    failed = sum(phase["failed"] + phase["lost"] for phase in run["phases"])
    return attempted, failed + run["oracle"]["mismatches"]


def end_to_end(run: Dict[str, Any], setup_samples: List[float]) -> Dict[str, Metric]:
    attempted, failed = failures(run)
    return {
        "wall_us_per_req": _wall_us_per_req(run),
        "setup_s": _metric(
            statistics.median(setup_samples), "s", samples=sorted(setup_samples)
        ),
        "peak_rss_mib": _metric(run["peak_rss_mib"], "MiB"),
        "sim_p50_ms": _metric(run["sim"]["p50_ms"], "ms", n=run["sim"]["n"]),
        "sim_p99_ms": _metric(run["sim"]["p99_ms"], "ms", n=run["sim"]["n"]),
        "failed_share": _metric(failed / attempted, "ratio"),
    }


def transparent(traced: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """What the wrappers changed: simulated metrics, exact counts,
    request accounting and oracle verdicts must all be identical."""
    differing = [key for key in ("sim", "counts", "oracle") if traced[key] != reference[key]]
    accounting = [
        [(phase["issued"], phase["completed"], phase["failed"]) for phase in run["phases"]]
        for run in (traced, reference)
    ]
    if accounting[0] != accounting[1]:
        differing.append("accounting")
    return differing


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: Dict[str, Any],
    reference: Dict[str, Any],
    passthrough: Optional[Dict[str, Any]] = None,
) -> Dict[str, Metric]:
    """*passthrough* is the untraced ``passthrough_get`` pass
    ``observed_get`` is compared with; ``None`` on the other workloads,
    where no telemetry is armed and its overhead is zero by construction."""
    done = sum(phase["completed"] for phase in traced["phases"])
    raw_wall = sum(phase["wall_s"] for phase in traced["phases"])
    cpu = sum(phase["cpu_s"] for phase in traced["phases"])
    # Like the span times, at the reference box's quiet speed.
    wall = sum(phase["wall_s"] / phase["host_factor"] for phase in traced["phases"])
    spans, counts = traced["spans"], traced["counts"]

    def calls(*names: str) -> int:
        return sum(spans.get(name, (0, 0.0))[0] for name in names)

    def seconds(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    out: Dict[str, Metric] = {
        metric: _metric(_ratio(seconds(*names) * 1e6, done), "us")
        for metric, names in LAYER_TIME_METRICS.items()
    }
    # Loop dispatch: timed wall time outside every root span.
    dispatch = wall - sum(self_seconds for _, self_seconds in spans.values())
    out["simnet.self_us"]["value"] += _ratio(dispatch * 1e6, done)

    def per_req(value: float, unit: str = "count") -> Metric:
        return _metric(_ratio(value, done), unit)

    phase_wall = {phase["verb"]: phase["us_per_req"]["median"] for phase in reference["phases"]}
    sym_bytes = traced["span_bytes"]
    lookups = counts["memo_hits"] + counts["memo_misses"]
    out.update({
        "client.calls_per_req": per_req(calls("client.encode", "client.decode")),
        "crypto.asym_decrypt_per_req": per_req(calls("crypto.asym_decrypt")),
        "crypto.sym_bytes_per_req": per_req(
            sym_bytes.get("crypto.sym_encrypt", 0) + sym_bytes.get("crypto.sym_decrypt", 0), "B"
        ),
        "crypto.pseudonym_memo_hit_ratio": _metric(_ratio(counts["memo_hits"], lookups), "ratio"),
        "crypto.keygen_s": _metric(traced["keygen_raw_s"] / traced["setup_host_factor"], "s"),
        "rest.wire_bytes_per_req": per_req(counts["wire_bytes"], "B"),
        "envelope.batches": _metric(counts["envelopes"], "count"),
        "envelope.reqs_per_batch": _metric(_ratio(done, counts["envelopes"]), "count"),
        "shuffler.flushes": _metric(counts["flushes"], "count"),
        "shuffler.full_flush_ratio": _metric(
            _ratio(counts["full_flushes"], counts["flushes"]), "ratio"
        ),
        "shuffler.sim_wait_ms": _metric(
            _ratio(traced["shuffle_wait"]["seconds"] * 1e3, traced["shuffle_wait"]["entries"]),
            "ms",
        ),
        "layers.sheds": _metric(counts["sheds"], "count"),
        "layers.transform_errors": _metric(counts["transform_errors"], "count"),
        "sgx.ecalls_per_req": per_req(counts["ecalls"]),
        "sgx.sim_overhead_ms": _metric(traced["sgx_sim_overhead_ms"], "ms"),
        "lrs.train_s": _metric(reference["train_s"], "s"),
        "lrs.requests": _metric(counts["lrs_requests"], "count"),
        "simnet.events_per_req": per_req(counts["events"]),
        "simnet.sends_per_req": per_req(counts["sends"]),
        "simnet.peak_pending": _metric(counts["peak_pending"], "count"),
        "telemetry.events_per_req": per_req(counts["telemetry_events"]),
        "telemetry.spans_per_req": per_req(counts["telemetry_spans"]),
        "workload.gen_s": _metric(reference["gen_s"] / reference["setup_host_factor"], "s"),
        "workload.post_wall_us": _metric(phase_wall.get("post", 0.0), "us"),
        "workload.get_wall_us": _metric(phase_wall.get("get", 0.0), "us"),
        "trace.overhead_ratio": _metric(
            _ratio(_wall_us_per_req(traced)["value"], _wall_us_per_req(reference)["value"]),
            "ratio",
        ),
        "trace.attributed_share": _metric(1.0 - _ratio(seconds(*_UNATTRIBUTED), wall), "ratio"),
        # Validity, not a layer: wall over CPU time of the timed window.
        # Above 1.15 something else had the core and the run is noisy.
        "host_contention": _metric(_ratio(raw_wall, cpu), "ratio"),
        # What the host times above were divided by (``hostclock.py``).
        "host.speed_factor": _metric(_ratio(raw_wall, wall), "ratio"),
    })
    if passthrough is None:
        out["telemetry.overhead_us"] = _metric(0.0, "us")
        out["telemetry.rss_mib_per_kreq"] = _metric(0.0, "MiB")
    else:
        out["telemetry.overhead_us"] = _metric(
            _wall_us_per_req(reference)["value"] - _wall_us_per_req(passthrough)["value"], "us"
        )
        out["telemetry.rss_mib_per_kreq"] = _metric(
            _ratio((reference["peak_rss_mib"] - passthrough["peak_rss_mib"]) * 1e3, done), "MiB"
        )
    return out
