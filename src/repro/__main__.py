"""Command-line entry point: ``python -m repro`` (see ``--help``).

The scenario half of the help text is generated from
:data:`repro.experiments.registry.EXPERIMENT_INDEX`: every entry with
a ``run`` target is a ``python -m repro run <scenario>`` choice.
"""

from __future__ import annotations

__all__ = ["main"]

import argparse
import os
import sys

from repro.experiments.registry import EXPERIMENT_INDEX, resolve, runnable, validate_index

_COMMANDS = """\
commands:
  info          package overview and the experiment index
  validate      check the experiment index against the tree
  run SCENARIO  run one registered scenario with its defaults: prints a
                summary, writes its artifacts under --out-dir and exits
                non-zero if any acceptance check fails.  Same seed =>
                byte-identical artifacts (CI runs each scenario in two
                fresh processes and diffs the trees; *_meta.json files
                carry wall clocks and are excluded)

The paper's tables and figures: python examples/reproduce_figures.py;
the quickstart: python examples/quickstart.py; the event-loop perf
floors (BENCH_simnet.json): python benchmarks/ledger.py simnet.
"""


def _describe() -> str:
    lines = [_COMMANDS, "scenarios:"]
    for name, experiment in runnable().items():
        lines.append(f"  {name:10s} {experiment.help}")
        lines.append(f"  {'':10s}   writes: {', '.join(experiment.artifacts)}")
    return "\n".join(lines)


def _cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — PProx reproduction (Middleware '21)")
    print()
    print("experiment index:")
    for experiment in EXPERIMENT_INDEX.values():
        print(f"  {experiment.identifier:10s} {experiment.title}")
        print(f"  {'':10s}   bench: {experiment.bench}")
    print()
    print("see README.md / DESIGN.md / EXPERIMENTS.md for details")
    return 0


def _cmd_validate(_args) -> int:
    problems = validate_index()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if not problems:
        print("experiment index OK: all modules import, all benches exist")
    return 1 if problems else 0


def _cmd_run(args) -> int:
    """Run one registered scenario's gate; non-zero on any problem."""
    experiment = EXPERIMENT_INDEX[args.scenario]
    out_dir = args.out_dir or os.path.join("results", args.scenario)
    problems = resolve(experiment.run)(out_dir)
    for name in experiment.artifacts:
        print(f"artifact: {os.path.join(out_dir, name)}")
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(f"{args.scenario} OK: every acceptance check holds")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=_describe(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("info", help="package overview").set_defaults(fn=_cmd_info)
    subparsers.add_parser("validate", help="check the experiment index").set_defaults(
        fn=_cmd_validate
    )
    run = subparsers.add_parser("run", help="run one registered scenario")
    run.add_argument("scenario", choices=list(runnable()))
    run.add_argument("--out-dir", default=None,
                     help="artifact directory (default: results/<scenario>)")
    run.set_defaults(fn=_cmd_run)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
