"""Command-line entry point: ``python -m repro`` (see ``--help``).

The scenario half of the help text is generated from
:data:`repro.experiments.registry.EXPERIMENT_INDEX`: every entry with
a ``run`` target is a ``python -m repro run <scenario>`` choice.
"""

from __future__ import annotations

__all__ = ["main"]

import argparse
import os
import pathlib
import runpy
import sys

from repro.experiments.registry import EXPERIMENT_INDEX, resolve, runnable, validate_index

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_COMMANDS = """\
commands:
  info          package overview and the experiment index
  reproduce     regenerate tables/figures (wraps the example CLI)
  demo          run the quickstart scenario
  validate      check the experiment index against the tree
  run SCENARIO  run one registered scenario with its defaults: prints a
                summary, writes its artifacts under --out-dir and exits
                non-zero if any acceptance check fails.  Same seed =>
                byte-identical artifacts (CI runs each scenario in two
                fresh processes and diffs the trees; *_meta.json files
                carry wall clocks and are excluded)
  profile       deterministic virtual-time profile of the obs micro run
                (profile.json / profile.folded / profile_meta.json)
  simnet-bench  event-loop micro-benchmarks; refreshes BENCH_simnet.json
                and enforces the recorded perf floors
"""


def _describe() -> str:
    lines = [_COMMANDS, "scenarios:"]
    for name, experiment in runnable().items():
        lines.append(f"  {name:10s} {experiment.help}")
        lines.append(f"  {'':10s}   writes: {', '.join(experiment.artifacts)}")
    return "\n".join(lines)


def _run_script(relative: str, argv) -> int:
    script = _REPO_ROOT / relative
    sys.argv = [str(script)] + list(argv)
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    return 0


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


def _cmd_reproduce(args) -> int:
    return _run_script(
        "examples/reproduce_figures.py", args.targets + (["--full"] if args.full else [])
    )


def _cmd_demo(_args) -> int:
    return _run_script("examples/quickstart.py", [])


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


def _cmd_profile(args) -> int:
    """Deterministic virtual-time profile of the obs micro scenario."""
    from repro.obs import run_obs_scenario, write_obs_artifacts
    from repro.obs.profiler import profile_snapshot

    result = run_obs_scenario(seed=args.seed, rps=args.rps, duration=args.duration)
    paths = write_obs_artifacts(result, args.out_dir)
    snapshot = profile_snapshot(result.loop)
    print(
        f"profiled {snapshot['events_processed']} events over"
        f" {snapshot['final_virtual_time']:.2f} virtual seconds"
    )
    ranked = sorted(
        snapshot["sites"].items(), key=lambda kv: kv[1]["calls"], reverse=True
    )
    print(f"top {min(args.top, len(ranked))} causal stacks by calls:")
    for key, record in ranked[: args.top]:
        print(
            f"  {record['calls']:8d} calls"
            f" {record['virtual_delay_seconds']:10.4f}s vdelay  {key}"
        )
    print(f"artifact: {paths['profile.json']}")
    print(f"artifact: {paths['profile.folded']} (collapsed stacks, flamegraph-ready)")
    print(f"artifact: {paths['profile_meta.json']} (wall clock, do not diff)")
    return 0


def _cmd_simnet_bench(args) -> int:
    """Event-loop perf floors (delegates to benchmarks/run_simnet_bench.py)."""
    return _run_script(
        "benchmarks/run_simnet_bench.py", ["--output", args.output] if args.output else []
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=_describe(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("info", help="package overview").set_defaults(fn=_cmd_info)
    reproduce = subparsers.add_parser("reproduce", help="regenerate tables/figures")
    reproduce.add_argument("targets", nargs="*", default=["table2", "table3"])
    reproduce.add_argument("--full", action="store_true")
    reproduce.set_defaults(fn=_cmd_reproduce)
    subparsers.add_parser("demo", help="run the quickstart").set_defaults(fn=_cmd_demo)
    subparsers.add_parser("validate", help="check the experiment index").set_defaults(
        fn=_cmd_validate
    )
    run = subparsers.add_parser("run", help="run one registered scenario")
    run.add_argument("scenario", choices=list(runnable()))
    run.add_argument("--out-dir", default=None,
                     help="artifact directory (default: results/<scenario>)")
    run.set_defaults(fn=_cmd_run)
    profile = subparsers.add_parser(
        "profile", help="deterministic virtual-time profile of the obs scenario"
    )
    profile.add_argument("--out-dir", default="results/profile",
                         help="directory for profile.json/.folded/_meta.json")
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--rps", type=float, default=80.0)
    profile.add_argument("--duration", type=float, default=4.0)
    profile.add_argument("--top", type=int, default=12,
                         help="causal stacks to print (by call count)")
    profile.set_defaults(fn=_cmd_profile)
    bench = subparsers.add_parser(
        "simnet-bench", help="event-loop perf floors (BENCH_simnet.json)"
    )
    bench.add_argument("--output", default=None,
                       help="where to write the benchmark report JSON")
    bench.set_defaults(fn=_cmd_simnet_bench)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
