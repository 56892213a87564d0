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
paper's slice (``scale=1.0``, one ≈ 5 s training, compared once with the
oracle's ≈ 15 s one), where the query is decided from the heads of the
lists; each recommend row also records, from an untimed pass, the share
of its histories' postings the queries read and how many candidates
they re-scored.  ``serve_query_users_scale_0.1`` races the engine
against the kernel, not the oracle: one trained ``HarnessEngine`` (a
fresh one, its answers not yet kept, in every repeat) serves the
end-to-end benchmark's ``macro_movielens`` get mix (800 activity-weighted
users at ``scale=0.1``) against ``CcoModel.recommend`` run on every get;
the row records the share of gets the engine answered from memory.  Four
ceilings (exit 1 above any; see ``CEILINGS_MIB``), read with
``tracemalloc``: around one training on the ``scale=0.1`` stream, its
peak and what the trained model keeps alive once it returns; around the
paper-slice training, its peak (no oracle row: the seed's pair table
would be traced at ≈ 0.7 GiB); and what an ``EventStore`` holding the
``scale=0.1`` stream keeps, against the seed's list of records
(``tests/oracles/store_reference.py``).

The two sides of a row are timed back to back in every repeat, so a
slow phase of the host hits both, and a floor that can be met by
returning something else is no floor: every repeat compares what the
two sides returned — events, genres, indicator lists (weights by their
bits) and popularity in order, every ranking — and the run fails on any
difference.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import chain
from typing import Callable, Dict, List, Tuple
from unittest import mock

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.lrs import cco
from repro.lrs.cco import CcoModel, CcoTrainer
from repro.lrs.engine import HISTORY_LIMIT, HarnessEngine
from repro.lrs.store import EventStore
from repro.workload.movielens import SyntheticMovieLens
from tests.oracles.cco_reference import (
    ReferenceMovieLens,
    model_in_order,
    reference_recommend,
    reference_train,
    trace_in_order,
)
from tests.oracles.store_reference import ReferenceEventStore

OUTPUT = REPO_ROOT / "BENCH_lrs.json"

SEED = 7
QUERIES = 400
#: Gets in the get phase of an 8 s ``macro_movielens`` run.
SERVED_GETS = 800

# Speedup floors vs the seed's loops, set below what the kernels
# measured (CPython 3.11, a shared 2-core host).  Seven runs after each
# rating became one bisect and the trainer's LLR a sum of per-item
# entropies and per-training cell terms: generator 12.6-14.8x at scale
# 0.1 and 26.5-37.3x at 0.3, trainer 3.1-3.8x (its models compared
# bit for bit, untimed).  Five runs after the query became a selection,
# recommend 2.8-3.1x at scale 0.1 (dense accumulators, every list read
# whole) and 6.7-7.2x on the paper's slice (heads of 128 postings,
# survivors re-scored); the same seven runs read 2.6-3.2x and 5.5-7.5x.
# The engine serving the e2e get mix, its answers kept per (history,
# n), ran 1.98-2.08x the kernel asked on every get (three runs; 0.491
# of the gets were answered from memory; 1.7-2.2x in the seven).
# The host stalls in bursts that a 0.05 s kernel feels and a 0.6 s
# oracle does not (one run of three repeats read 3.6x at scale 0.1, one
# of two read 9.9x at 0.3, when the generator took 0.1 s): hence best
# of seven and three.
FLOORS = {
    "generate_scale_0.1": 10.0,
    "generate_scale_0.3": 20.0,
    "train_scale_0.1": 2.7,
    "recommend_history_50": 2.4,
    "recommend_paper_slice": 4.5,
    "serve_query_users_scale_0.1": 1.6,
}

# Ceilings, MiB, on the scale=0.1 stream (CPython 3.11).  One
# training's tracemalloc peak: the seed's pair table peaks at 44.3, the
# row-at-a-time trainer at 11.8, 10.4 once its LLR memo was keyed on
# ints, not 3-tuples, 7.3 since each item's indicators are one names
# tuple and one array of weights, 5.35 since a pending indicator is a
# slot in two arrays, not a (-score, partner) tuple, and the
# interactions are read into an interned store, not a dict per user,
# 2.6 since an item is ranked at its first holder, with no rank dict
# per row, and no LLR memo lasts the training.  The same training on
# the paper's slice (scale=1.0) peaks at 49.2 before that and 25.9
# after.  The model it returns: 5.5 as one (name, weight) tuple per
# indicator, 1.74 as the arrays.  The store: 2.8 as one FeedbackEvent
# per post, 0.61 as interned columns.  Each ceiling leaves room for
# other interpreters' object sizes, not for the shape before.
CEILINGS_MIB = {
    "train_peak_mib_scale_0.1": 3.5,
    "train_peak_mib_paper_slice": 32.0,
    "model_mib_scale_0.1": 2.0,
    "store_mib_scale_0.1": 1.0,
}


def _race(name: str, new: Callable[[], object], oracle: Callable[[], object], repeat: int,
          problems: List[str], view: Callable[[object], object] = lambda result: result) -> dict:
    """Best seconds of *new* and of *oracle* over *repeat* interleaved
    rounds, each round's two results compared through *view*, untimed."""
    best_new = best_oracle = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        got = new()
        middle = time.perf_counter()
        expected = oracle()
        finished = time.perf_counter()
        best_new = min(best_new, middle - started)
        best_oracle = min(best_oracle, finished - middle)
        if view(got) != view(expected):
            problems.append(f"{name}: the kernel and the oracle returned different results")
        del got, expected  # freed here, not inside the next round's timing
    return {
        "kernel_s": round(best_new, 4),
        "oracle_s": round(best_oracle, 4),
        "speedup": round(best_oracle / best_new, 2),
    }


def _traced(build: Callable[[], object]) -> Tuple[float, float, object]:
    """The ``tracemalloc`` peak of *build* and what it left allocated
    when it returned (what it built), in MiB, and what it built."""
    tracemalloc.start()
    try:
        built = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20, kept / 2**20, built


def _train_memory(trainer: CcoTrainer, events, problems: List[str]) -> Dict[str, dict]:
    """The ``train_peak_mib`` and ``model_mib`` rows at ``scale=0.1``."""
    kernel_peak, kernel_kept, model = _traced(lambda: trainer.train(events))
    oracle_peak, oracle_kept, expected = _traced(lambda: reference_train(trainer, events))
    if model_in_order(model) != model_in_order(expected):
        problems.append("train_peak_mib_scale_0.1: the kernel and the oracle returned different results")
    return {
        "train_peak_mib_scale_0.1": {"kernel_mib": round(kernel_peak, 2), "oracle_mib": round(oracle_peak, 2)},
        "model_mib_scale_0.1": {"kernel_mib": round(kernel_kept, 2), "oracle_mib": round(oracle_kept, 2)},
    }


def _store_memory(events, problems: List[str]) -> Dict[str, dict]:
    """The ``store_mib`` row at ``scale=0.1``: what a store holding
    *events* keeps allocated, the identifier strings aside (the stream
    holds them already)."""
    def fill(store):
        for user, item in events:
            store.insert(user, item)
        return store

    _, kernel_kept, store = _traced(lambda: fill(EventStore()))
    _, oracle_kept, expected = _traced(lambda: fill(ReferenceEventStore()))
    if store.dump() != expected.dump():
        problems.append("store_mib_scale_0.1: the store and the oracle hold different records")
    return {"store_mib_scale_0.1": {"kernel_mib": round(kernel_kept, 2),
                                    "oracle_mib": round(oracle_kept, 2)}}


def _query_cost(model: CcoModel, histories: List[List[str]]) -> dict:
    """What the queries read, from an untimed pass with the query
    side's two steps wrapped: postings summed against the postings the
    histories have, and the candidates re-scored per query that the
    heads of the lists decided."""
    listed = Counter(chain.from_iterable(names for names, _ in model.indicators.values()))
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
    # The kernel itself: no engine, so no answer kept from a past query.
    assert type(model) is CcoModel, f"{name} races CcoModel.recommend, not {type(model).__name__}"
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


def _race_serving(name: str, trace: SyntheticMovieLens, model: CcoModel, repeat: int,
                  problems: List[str]) -> dict:
    store = EventStore()
    for user, item in trace.events:
        store.insert(user, item)
    users = trace.query_users(SERVED_GETS, random.Random(SEED))

    def serve(engine: HarnessEngine) -> List[List[str]]:
        return [engine.get_recommendations(user) for user in users]

    row = _race(
        name,
        lambda: serve(HarnessEngine(store=store, model=model)),
        lambda: [model.recommend(store.user_history(user, limit=HISTORY_LIMIT)) for user in users],
        repeat, problems,
    )
    engine = HarnessEngine(store=store, model=model)
    serve(engine)
    row["gets"] = SERVED_GETS
    row["hit_ratio"] = round(engine.hits / SERVED_GETS, 3)
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
    # A model's weights are compared by their bits, which costs about a
    # third of a training: outside the timed region.
    results["train_scale_0.1"] = _race(
        "train_scale_0.1",
        lambda: trainer.train(trace.events),
        lambda: reference_train(trainer, trace.events),
        5, problems, view=model_in_order,
    )
    results["train_scale_0.1"]["events"] = len(trace.events)
    results.update(_train_memory(trainer, trace.events, problems))
    results.update(_store_memory(trace.events, problems))

    model = trainer.train(trace.events)
    results["recommend_history_50"] = _race_recommend(
        "recommend_history_50", trace, model, 7, problems
    )
    results["serve_query_users_scale_0.1"] = _race_serving(
        "serve_query_users_scale_0.1", trace, model, 7, problems
    )
    paper = SyntheticMovieLens(seed=SEED, scale=1.0)
    paper_peak, _, paper_model = _traced(lambda: trainer.train(paper.events))
    results["train_peak_mib_paper_slice"] = {"kernel_mib": round(paper_peak, 2)}
    if model_in_order(paper_model) != model_in_order(reference_train(trainer, paper.events)):
        problems.append("train_paper_slice: the kernel and the oracle returned different results")
    results["recommend_paper_slice"] = _race_recommend(
        "recommend_paper_slice", paper, paper_model, 3, problems
    )
    return results


def main() -> int:
    problems: List[str] = []
    results = _measure(problems)
    report = {
        "benchmark": "LRS-side kernels (generator, CCO trainer, CCO top-n) vs the seed's loops",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "seconds per row (best of interleaved repeats), MiB for the train_peak, model and store rows; a recommend row is 400 queries, the serve row 800 gets",
        "seed": SEED,
        "results": results,
        "floors": FLOORS,
        "ceilings_mib": CEILINGS_MIB,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in results.items():
        if name in CEILINGS_MIB:
            oracle = f"seed loops {entry['oracle_mib']:>6.2f} MiB, " if "oracle_mib" in entry else ""
            print(f"{name:28s} {entry['kernel_mib']:>8.2f} MiB ({oracle}ceiling {CEILINGS_MIB[name]})")
        else:
            print(f"{name:28s} {entry['kernel_s']:>8.4f} s"
                  f"  (seed loops {entry['oracle_s']:>8.4f} s, {entry['speedup']:.1f}x)")
    print(f"\nwrote {OUTPUT}")
    failed = [
        f"{name}: {results[name]['speedup']}x < {floor}x"
        for name, floor in FLOORS.items()
        if results[name]["speedup"] < floor
    ] + [
        f"{name}: {results[name]['kernel_mib']} MiB > {ceiling} MiB"
        for name, ceiling in CEILINGS_MIB.items()
        if results[name]["kernel_mib"] > ceiling
    ]
    if failed:
        print("PERF FLOOR VIOLATED: " + "; ".join(failed), file=sys.stderr)
    if problems:
        print("KERNEL OUTPUT WRONG: " + "; ".join(sorted(set(problems))), file=sys.stderr)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
