"""Emit ``BENCH_lrs.json``: the LRS-side kernels vs the seed's loops.

``macro_movielens`` pays three kernels that are not the proxy's: the
synthetic MovieLens generator, the CCO trainer and the CCO top-n query.
This measures each against the seed's body, kept as the test oracle in
``tests/oracles/cco_reference.py``::

    PYTHONPATH=src python benchmarks/run_lrs_bench.py

Floors (exit 1 below any of them; see ``FLOORS`` for what they were
set from): the generator at ``scale=0.1`` — the end-to-end benchmark's
slice — and at ``scale=0.3``, where the larger floor is what pins
*linear* growth (the seed's draw is quadratic, so its ratio to a linear
one triples with the scale); the trainer on the ``scale=0.1`` stream;
``recommend`` over the benchmark's query mix (activity-weighted users,
histories capped at 50 items as ``HarnessEngine`` serves them) on the
``scale=0.1`` model, where every posting list is read whole, and on the
paper's slice (``scale=1.0``, one ≈ 12 s training), where the query is
decided from the heads of the lists; each recommend row also records,
from an untimed pass, the share of its histories' postings the queries
read and how many candidates they re-scored.

The two sides of a row are timed back to back in every repeat, so a
slow phase of the host hits both, and a floor that can be met by
returning something else is no floor: every repeat compares what the
two sides returned — events, genres, indicator lists and popularity in
order, every ranking — and the run fails on any difference.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import sys
import time
from collections import Counter
from typing import Callable, Dict, List
from unittest import mock

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.lrs import cco
from repro.lrs.cco import CcoModel, CcoTrainer
from repro.workload.movielens import SyntheticMovieLens
from tests.oracles.cco_reference import (
    ReferenceMovieLens,
    model_in_order,
    reference_recommend,
    reference_train,
    trace_in_order,
)

OUTPUT = REPO_ROOT / "BENCH_lrs.json"

SEED = 7
QUERIES = 400
HISTORY_LIMIT = 50

# Speedup floors vs the seed's loops, set below what the kernels
# measured when they landed (CPython 3.11, a 2-core sandbox, nine runs):
# generator 5.3-6.9x at scale 0.1 and 14.6-17.3x at 0.3, trainer
# 2.2-2.6x; and, five runs after the query became a selection,
# recommend 2.8-3.1x at scale 0.1 (dense accumulators, every list read
# whole) and 6.7-7.2x on the paper's slice (heads of 128 postings,
# survivors re-scored).  The host stalls in bursts that a 0.1 s kernel
# feels and a 0.6 s oracle does not (one run of three repeats read 3.6x
# at scale 0.1, one of two read 9.9x at 0.3): hence best of seven and
# three.
FLOORS = {
    "generate_scale_0.1": 4.0,
    "generate_scale_0.3": 8.0,
    "train_scale_0.1": 1.8,
    "recommend_history_50": 2.4,
    "recommend_paper_slice": 4.5,
}


def _race(name: str, new: Callable[[], object], oracle: Callable[[], object], repeat: int,
          problems: List[str]) -> dict:
    """Best seconds of *new* and of *oracle* over *repeat* interleaved
    rounds, each round's two results compared."""
    best_new = best_oracle = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        got = new()
        middle = time.perf_counter()
        expected = oracle()
        finished = time.perf_counter()
        best_new = min(best_new, middle - started)
        best_oracle = min(best_oracle, finished - middle)
        if got != expected:
            problems.append(f"{name}: the kernel and the oracle returned different results")
    return {
        "kernel_s": round(best_new, 4),
        "oracle_s": round(best_oracle, 4),
        "speedup": round(best_oracle / best_new, 2),
    }


def _query_cost(model: CcoModel, histories: List[List[str]]) -> dict:
    """What the queries read, from an untimed pass with the query
    side's two steps wrapped: postings summed against the postings the
    histories have, and the candidates re-scored per query that the
    heads of the lists decided."""
    listed = Counter(indicator for weighted in model.indicators.values() for indicator, _ in weighted)
    available = sum(listed[item] for history in histories for item in dict.fromkeys(history))
    read = 0
    survivors: List[int] = []
    accumulate, rescored = cco._accumulate, CcoModel._rescored

    def counting_accumulate(index, lists, excluded, prefix):
        nonlocal read
        read += sum(min(len(items), prefix) for items, _ in lists)
        return accumulate(index, lists, excluded, prefix)

    def counting_rescored(self, index, asked, scores, touched, unread, n):
        kept = rescored(self, index, asked, scores, touched, unread, n)
        if unread and kept is not None:
            survivors.append(len(kept))
        return kept

    with mock.patch.object(cco, "_accumulate", counting_accumulate), \
            mock.patch.object(CcoModel, "_rescored", counting_rescored):
        for history in histories:
            model.recommend(history)
    return {
        "postings_read_share": round(read / available, 3),
        "decided_from_heads": len(survivors),
        "rescored_per_decided_query": round(sum(survivors) / len(survivors), 1) if survivors else 0.0,
    }


def _race_recommend(name: str, trace: SyntheticMovieLens, model: CcoModel, repeat: int,
                    problems: List[str]) -> dict:
    by_user = trace.user_histories()
    histories = [
        by_user[user][-HISTORY_LIMIT:] for user in trace.query_users(QUERIES, random.Random(SEED))
    ]
    # Each side builds its posting lists at its first query; whichever
    # round that is, it is not the best one.
    row = _race(
        name,
        lambda: [model.recommend(history) for history in histories],
        lambda: [reference_recommend(model, history) for history in histories],
        repeat, problems,
    )
    row["queries"] = QUERIES
    row.update(_query_cost(model, histories))
    return row


def _measure(problems: List[str]) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for scale, repeat in ((0.1, 7), (0.3, 3)):
        name = f"generate_scale_{scale}"
        results[name] = _race(
            name,
            lambda: trace_in_order(SyntheticMovieLens(seed=SEED, scale=scale)),
            lambda: trace_in_order(ReferenceMovieLens(seed=SEED, scale=scale)),
            repeat, problems,
        )

    trace = SyntheticMovieLens(seed=SEED, scale=0.1)
    trainer = CcoTrainer()
    results["train_scale_0.1"] = _race(
        "train_scale_0.1",
        lambda: model_in_order(trainer.train(trace.events)),
        lambda: model_in_order(reference_train(trainer, trace.events)),
        5, problems,
    )
    results["train_scale_0.1"]["events"] = len(trace.events)

    results["recommend_history_50"] = _race_recommend(
        "recommend_history_50", trace, trainer.train(trace.events), 7, problems
    )
    paper = SyntheticMovieLens(seed=SEED, scale=1.0)
    results["recommend_paper_slice"] = _race_recommend(
        "recommend_paper_slice", paper, trainer.train(paper.events), 3, problems
    )
    return results


def main() -> int:
    problems: List[str] = []
    results = _measure(problems)
    report = {
        "benchmark": "LRS-side kernels (generator, CCO trainer, CCO top-n) vs the seed's loops",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "seconds per row (best of interleaved repeats); a recommend row is 400 queries",
        "seed": SEED,
        "results": results,
        "floors": FLOORS,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in results.items():
        print(f"{name:24s} {entry['kernel_s']:>8.4f} s"
              f"  (seed loops {entry['oracle_s']:>8.4f} s, {entry['speedup']:.1f}x)")
    print(f"\nwrote {OUTPUT}")
    failed = [
        f"{name}: {results[name]['speedup']}x < {floor}x"
        for name, floor in FLOORS.items()
        if results[name]["speedup"] < floor
    ]
    if failed:
        print("SPEEDUP FLOOR VIOLATED: " + "; ".join(failed), file=sys.stderr)
    if problems:
        print("KERNEL OUTPUT WRONG: " + "; ".join(sorted(set(problems))), file=sys.stderr)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
