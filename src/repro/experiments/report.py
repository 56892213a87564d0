"""Rendering of reproduced figures and tables as text reports.

Produces the rows that EXPERIMENTS.md records and the console output
of the benchmark harness: one candlestick summary per
(configuration, RPS) pair, in the format of the paper's figures.
"""

from __future__ import annotations

from repro.cluster.deployments import (
    MACRO_BASELINES,
    MACRO_FULL,
    MICRO_CONFIGS,
    MacroConfig,
    MicroConfig,
)
from repro.experiments.figures import FigureData

__all__ = [
    "render_figure",
    "render_table2",
    "render_table3",
    "render_telemetry",
]


def render_figure(data: FigureData, unit_scale: float = 1000.0) -> str:
    """Multi-line text table of all candlesticks in *data* (ms)."""
    lines = [f"== {data.figure}: {data.title} =="]
    header = (
        f"{'config':8s} {'rps':>6s} {'p25':>8s} {'med':>8s} {'p75':>8s}"
        f" {'wlow':>8s} {'whigh':>8s} {'p99':>8s} {'max':>8s} {'n':>7s} {'sat':>4s}"
    )
    lines.append(header)
    for config_name, points in data.series.items():
        for point in points:
            if point.summary is None:
                lines.append(f"{config_name:8s} {point.rps:6.0f} {'(no samples)':>8s}")
                continue
            s = point.summary
            lines.append(
                f"{config_name:8s} {point.rps:6.0f}"
                f" {s.p25 * unit_scale:8.1f} {s.median * unit_scale:8.1f}"
                f" {s.p75 * unit_scale:8.1f} {s.whisker_low * unit_scale:8.1f}"
                f" {s.whisker_high * unit_scale:8.1f} {s.p99 * unit_scale:8.1f}"
                f" {s.maximum * unit_scale:8.1f} {s.count:7d}"
                f" {'yes' if point.saturated else 'no':>4s}"
            )
    return "\n".join(lines)


def _micro_row(config: MicroConfig) -> str:
    enc = "*" if (config.encryption and not config.item_pseudonymization) else (
        "yes" if config.encryption else "no"
    )
    shuffle = str(config.shuffle_size) if config.shuffle_size else "off"
    return (
        f"{config.name:4s} enc={enc:3s} sgx={'yes' if config.sgx else 'no':3s}"
        f" S={shuffle:3s} UA={config.ua_instances} IA={config.ia_instances}"
        f" maxRPS={config.max_rps}"
    )


def render_table2() -> str:
    """Table 2: micro-benchmark configurations."""
    lines = ["== Table 2: micro-benchmark configurations =="]
    lines += [_micro_row(config) for config in MICRO_CONFIGS.values()]
    return "\n".join(lines)


def _macro_row(config: MacroConfig) -> str:
    proxy = (
        f"UA={config.ua_instances} IA={config.ia_instances} S={config.shuffle_size}"
        if config.with_proxy
        else "no proxy"
    )
    return (
        f"{config.name:4s} LRS={config.lrs_nodes:2d} nodes"
        f" ({config.frontends} fe + 4 support)  {proxy:22s} maxRPS={config.max_rps}"
    )


def render_table3() -> str:
    """Table 3: macro-benchmark configurations."""
    lines = ["== Table 3: macro-benchmark configurations =="]
    lines += [_macro_row(config) for config in MACRO_BASELINES.values()]
    lines += [_macro_row(config) for config in MACRO_FULL.values()]
    return "\n".join(lines)


def render_telemetry(hub) -> str:
    """Human digest of one run's :class:`repro.telemetry.Telemetry`
    *hub*: traces, per-stage timings, privacy-health gauges, and the
    redaction audit verdict.
    """
    lines = [hub.render_summary()]
    violations = hub.audit()
    if violations:
        lines.append(f"REDACTION AUDIT FAILED: {len(violations)} leak(s)")
        lines += [f"  - {violation.describe()}" for violation in violations[:10]]
    else:
        lines.append("redaction audit: clean (no identifier leaks in telemetry)")
    return "\n".join(lines)
