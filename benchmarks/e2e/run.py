"""End-to-end benchmark of the real PProx pipeline, attributed by layer.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement, as the benchmark driver asks for it.  The last
    line of stdout is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``: the end-to-end metrics of
    ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
    ``--trace 1``.

``python3 benchmarks/e2e/run.py [--seed 7] [--workload W] [--seconds S] [--out FILE]``
    The whole ledger: both measurements of every workload (or of *W*),
    every metric printed by name with its unit, optionally written to
    *FILE* for ``compare.py``.

Either way the exit code is non-zero when an output is wrong or an
invariant breaks.  Every pass runs in a fresh subprocess (see
``harness.py``), one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from metrics import LAYER_TIME_METRICS, end_to_end, failures, per_layer, transparent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The traced pass and its untraced reference run at this share of the
#: full request count.
TRACED_FRACTION = 0.25
#: Set-ups timed per end-to-end measurement (each in a fresh process);
#: the median is reported.
SETUP_SAMPLES = 2
#: What ``observed_get`` is compared with for the telemetry overhead.
PASSTHROUGH = "passthrough_get"
#: ``host_contention`` above this flags a run as noisy.
CONTENTION_LIMIT = 1.15


def run_pass(workload: str, seed: int, seconds: float, **options: Any) -> Dict[str, Any]:
    """Run ``harness.py`` once in a fresh process and parse its result."""
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    for name, value in options.items():
        command += [f"--{name.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    finished = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if finished.returncode != 0:
        sys.stderr.write(finished.stderr)
        raise SystemExit(f"{workload}: harness exited with code {finished.returncode}")
    return json.loads(finished.stdout.splitlines()[-1])


def _verdict(run: Dict[str, Any], problems: Sequence[str] = ()) -> Dict[str, Any]:
    attempted, failed = failures(run)
    problems = list(run["oracle"]["violations"]) + list(problems)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def measure_end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced full-size pass, plus set-up timed in fresh processes."""
    full = run_pass(workload, seed, seconds)
    setups = [full["setup_s"]] + [
        run_pass(workload, seed, seconds, setup_only=1)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    return {**_verdict(full), "metrics": end_to_end(full, setups)}


def measure_per_layer(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """A traced pass beside an untraced one of the same size; the two
    must agree on everything simulated, or the wrappers are not
    transparent and the run is wrong."""
    traced = run_pass(workload, seed, seconds, fraction=TRACED_FRACTION, traced=1)
    reference = run_pass(workload, seed, seconds, fraction=TRACED_FRACTION)
    passthrough = (
        run_pass(PASSTHROUGH, seed, seconds, fraction=TRACED_FRACTION)
        if reference["observed"] else None
    )
    problems = [
        f"traced and untraced passes differ on {what}"
        for what in transparent(traced, reference)
    ]
    return {**_verdict(traced, problems), "metrics": per_layer(traced, reference, passthrough)}


def _declared(kind: str, metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Exactly the metrics ``BENCHMARK.json`` declares under *kind*."""
    return {
        entry["name"]: {"value": metrics[entry["name"]]["value"], "unit": entry["unit"]}
        for entry in SPEC[kind]
    }


def owners(layer_metrics: Dict[str, Any]) -> List[tuple]:
    """``(layer, share)`` ranked by share of the traced wall time per request."""
    by_layer: Dict[str, float] = {}
    for name in LAYER_TIME_METRICS:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + layer_metrics[name]["value"]
    total = sum(by_layer.values()) or 1.0
    return sorted(
        ((layer, value / total) for layer, value in by_layer.items()),
        key=lambda item: -item[1],
    )


def _print_block(title: str, kind: str, metrics: Dict[str, Any]) -> None:
    """Every metric by name with its unit, in ``BENCHMARK.json`` order."""
    print(f"  {title}")
    declared = [entry["name"] for entry in SPEC[kind]]
    for name in declared + [name for name in metrics if name not in declared]:
        metric = metrics[name]
        extra = ""
        if "q1" in metric:
            extra = f"   (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, K={metric['k']})"
        elif "n" in metric:
            extra = f"   (n={metric['n']})"
        elif "samples" in metric:
            extra = "   (samples " + ", ".join(f"{s:.3f}" for s in metric["samples"]) + ")"
        print(f"    {name:34s} {metric['value']:14.6g} {metric['unit']}{extra}")


def run_suite(workloads: Sequence[str], seed: int, seconds: float) -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for workload in workloads:
        started = time.perf_counter()
        untraced = measure_end_to_end(workload, seed, seconds)
        layers = measure_per_layer(workload, seed, seconds)
        problems = untraced["problems"] + layers["problems"]
        results[workload] = {
            "correct": untraced["correct"] and layers["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "problems": problems,
            "end_to_end": untraced["metrics"],
            "per_layer": layers["metrics"],
        }
        print(f"== {workload}  (seed {seed}, --seconds {seconds:g},"
              f" {time.perf_counter() - started:.0f} s) ==")
        _print_block("end to end (untraced)", "end_to_end", untraced["metrics"])
        _print_block(f"per layer (traced, {TRACED_FRACTION:g} of the requests)",
                     "per_layer", layers["metrics"])
        print("  wall-time owners: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in owners(layers["metrics"])[:5]))
        if layers["metrics"]["host_contention"]["value"] > CONTENTION_LIMIT:
            print(f"  NOISY: host_contention above {CONTENTION_LIMIT}")
        for problem in problems:
            print(f"  WRONG: {problem}")
        if untraced["failed"] or layers["failed"]:
            print(f"  WRONG: {untraced['failed']} + {layers['failed']} failed request(s)")
        print()
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = [entry["name"] for entry in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measurement in the driver's format")
    parser.add_argument("--out", help="write the whole ledger to this JSON file")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace:
            measured, kind = measure_per_layer(args.workload, args.seed, args.seconds), "per_layer"
        else:
            measured, kind = measure_end_to_end(args.workload, args.seed, args.seconds), "end_to_end"
        for problem in measured["problems"]:
            print(f"WRONG: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": measured["correct"],
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": _declared(kind, measured["metrics"]),
        }))
        return 0 if measured["correct"] else 1

    results = run_suite([args.workload] if args.workload else names, args.seed, args.seconds)
    if args.out:
        ledger = {
            # Host facts; compare.py ignores this block.
            "meta": {
                "seed": args.seed,
                "seconds": args.seconds,
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            },
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
