"""Regenerate the paper's tables and figures from the command line.

Usage:
    python examples/reproduce_figures.py            # everything, quick
    python examples/reproduce_figures.py fig6 fig7  # a subset
    python examples/reproduce_figures.py --full     # paper-scale durations

``--full`` uses the paper's 60 s feedback + 300 s query windows and
6 aggregated runs; expect a long wall-clock run (pure-Python event
simulation).  The quick mode reproduces the same shapes in minutes.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    render_figure,
    render_table2,
    render_table3,
)
from repro.workload.scenario import ScenarioTimings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("targets", nargs="*",
                        default=["table2", "table3", "fig6", "fig7", "fig8",
                                 "fig9", "fig10"],
                        help="which artefacts to regenerate")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale durations and 6 runs per point")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if args.full:
        runs, duration, trim = 6, 300.0, 15.0
        timings = ScenarioTimings(feedback_seconds=60.0, query_seconds=300.0,
                                  trim_seconds=15.0)
    else:
        runs, duration, trim = 1, 20.0, 5.0
        timings = ScenarioTimings(feedback_seconds=10, query_seconds=30,
                                  trim_seconds=8)

    builders = {
        "table2": lambda: render_table2(),
        "table3": lambda: render_table3(),
        "fig6": lambda: render_figure(
            figure6(seed=args.seed, runs=runs, duration=duration, trim=trim)
        ),
        "fig7": lambda: render_figure(
            figure7(seed=args.seed, runs=runs, duration=duration, trim=trim)
        ),
        "fig8": lambda: render_figure(
            figure8(seed=args.seed, runs=runs, duration=duration, trim=trim)
        ),
        "fig9": lambda: render_figure(
            figure9(seed=args.seed, runs=runs, timings=timings)
        ),
        "fig10": lambda: render_figure(
            figure10(seed=args.seed, runs=runs, timings=timings)
        ),
    }

    for target in args.targets:
        if target not in builders:
            print(f"unknown target {target!r}; choose from {sorted(builders)}")
            return 2
        start = time.perf_counter()
        print(builders[target]())
        print(f"[{target} regenerated in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
