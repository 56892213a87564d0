#!/usr/bin/env python3
"""Byte-identity check of every scenario artifact against an older revision.

``tools/scenario_diff.py <rev>`` clones *rev* of this repository under a
temporary directory, runs every ``python -m repro run`` scenario of the
registry from both trees (each in a fresh process, into a fresh
out-dir), and ``diff -r -x '*_meta.json'``s the two artifact trees
scenario by scenario (``*_meta.json`` files carry wall clocks).  It
then runs the :data:`EXAMPLES` from both trees and compares their
stdout.  The two trees run under two fixed, different
``PYTHONHASHSEED``s, so an artifact that depends on ``set`` /
``str``-hash iteration order differs every time instead of by chance.
A refactor that must not move an artifact byte passes exactly when this
exits 0; about 2.5 minutes per tree.

Exit status 0 when every scenario passes its own gate in both trees and
no artifact or example output differs; 1 otherwise, with the diff
printed.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parent.parent

#: The deterministic examples whose stdout a refactor must not move
#: (CI's ``examples`` job runs the same five).
EXAMPLES = ("quickstart", "breach_drill", "multi_tenant_raas", "movie_site", "capacity_planner")


def run_scenarios(tree: Path, scenarios: List[str], out: Path, hash_seed: int) -> List[str]:
    """Run *scenarios* from *tree* into ``out/<scenario>`` under
    ``PYTHONHASHSEED=hash_seed``; returns the ones whose own gate failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=str(hash_seed))
    failed = []
    for scenario in scenarios:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", scenario, "--out-dir", str(out / scenario)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            failed.append(scenario)
            sys.stderr.write(done.stderr)
    return failed


def example_output(tree: Path, example: str, hash_seed: int) -> Optional[str]:
    """stdout of ``examples/<example>.py`` run from *tree*, or ``None``
    when it exits non-zero."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(tree / "examples" / f"{example}.py")],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare the working tree against")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.registry import runnable

    scenarios = list(runnable())
    status = 0
    with tempfile.TemporaryDirectory(prefix="scenario-diff-") as scratch:
        clone, theirs, ours = (Path(scratch) / name for name in ("clone", "a", "b"))
        subprocess.run(["git", "clone", "-q", str(REPO), str(clone)], check=True)
        subprocess.run(["git", "-C", str(clone), "checkout", "-q", args.rev], check=True)
        for label, tree, out, hash_seed in (
            (args.rev, clone, theirs, 1), ("working tree", REPO, ours, 2)
        ):
            for scenario in run_scenarios(tree, scenarios, out, hash_seed):
                print(f"{scenario:10s} GATE FAILED ({label})")
                status = 1
        for scenario in scenarios:
            diff = subprocess.run(
                ["diff", "-r", "-x", "*_meta.json", str(theirs / scenario), str(ours / scenario)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            print(f"{scenario:10s} {'identical' if diff.returncode == 0 else 'DIFFERS'}")
            if diff.returncode != 0:
                print(diff.stdout)
                status = 1
        for example in EXAMPLES:
            before, after = example_output(clone, example, 1), example_output(REPO, example, 2)
            if before is None or after is None:
                print(f"examples/{example}.py FAILED")
                status = 1
                continue
            print(f"examples/{example}.py {'identical' if before == after else 'DIFFERS'}")
            if before != after:
                print("".join(difflib.unified_diff(
                    before.splitlines(True), after.splitlines(True), args.rev, "working tree"
                )))
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
