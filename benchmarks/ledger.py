"""The micro-benchmark ledger: every bounded row of every suite, one
timing kernel, one report schema::

    PYTHONPATH=src python benchmarks/ledger.py [SUITE ...]

Each suite (``crypto``, ``lrs``, ``simnet``, ``telemetry``, ``wire``;
none named means all) is a function below that builds its fixtures and
returns or yields its rows.  A :class:`Row` is data: a name, a unit, the measured
callable and the baseline it is held against, the check of what the two
return, and a floor or a ceiling.  The run writes ``BENCH_<suite>.json``
at the repository root and exits 1 if any row breaks its bound or any
check fails.

A ratio row (unit ``x``) is timed by :func:`paired`: in each round both
sides run, the one that runs first alternating round by round, so a slow
stretch of the host falls on both; the row reads the median of the
per-round ratios, baseline seconds over measured seconds.  The collector
is off inside every timed batch, as ``timeit`` has it.  Every round's two
results go through the row's check, untimed: a floor met by returning
something else is no floor.  A row with a ``gauge`` reads one number
off one run of its measured side instead (a ``tracemalloc`` reading, or
events per second), and checks its result against the baseline's.

The baselines are test oracles, not product code: the repository root
is put on ``sys.path`` so they import from ``tests/``.
"""

from __future__ import annotations

import gc
import io
import json
import operator
import platform
import random
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO)]  # the oracles live with the tests

from repro.crypto import ctr, prp  # noqa: E402
from repro.crypto.envelope import FIXED_ID_BYTES, EnvelopeCodec, encode_identifier, pad_item_list  # noqa: E402
from repro.crypto.keys import KeyFactory  # noqa: E402
from repro.crypto.provider import RealCryptoProvider  # noqa: E402
from repro.crypto.rsa import RSA_BITS, generate_keypair  # noqa: E402
from repro.lrs import cco  # noqa: E402
from repro.lrs.cco import CcoModel, CcoTrainer  # noqa: E402
from repro.lrs.engine import HISTORY_LIMIT, HarnessEngine  # noqa: E402
from repro.lrs.store import EventStore  # noqa: E402
from repro.rest.codec import BINARY_WIRE_CODEC, JSON_WIRE_CODEC, WireFrame, ship  # noqa: E402
from repro.rest.messages import Request, Response, Verb  # noqa: E402
from repro.simnet.clock import EventLoop  # noqa: E402
from repro.simnet.metrics import LatencyRecorder  # noqa: E402
from repro.simnet.network import Network  # noqa: E402
from repro.telemetry.events import EventLog, JsonlSink  # noqa: E402
from repro.telemetry.redaction import RedactionPolicy  # noqa: E402
from repro.workload.injector import Injector  # noqa: E402
from repro.workload.movielens import SyntheticMovieLens  # noqa: E402
from tests.oracles.aes_reference import reference_ctr_transform, reference_det_encrypt  # noqa: E402
from tests.oracles.cco_reference import (  # noqa: E402
    ReferenceMovieLens, model_in_order, reference_recommend, reference_train, trace_in_order,
)
from tests.oracles.heap_event_loop import HeapEventLoop  # noqa: E402
from tests.oracles.item_list_reference import seed_json_pack_items, seed_json_unpack_items  # noqa: E402
from tests.oracles.redaction_reference import reference_scrub  # noqa: E402
from tests.oracles.store_reference import ReferenceEventStore  # noqa: E402

Side = Callable[[], object]


@dataclass
class Row:
    """One bounded number.  *pairs* holds (measured, baseline) sides; a
    ratio row with more than one pair reads the pair that gains least.
    *number* is how many calls of (measured, baseline) one timed batch
    makes; *detail* adds untimed facts to the report."""

    name: str
    pairs: Sequence[Tuple[Side, Optional[Side]]]
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    unit: str = "x"
    same: Callable[[object, object], bool] = operator.eq
    gauge: Optional[Callable[[Side], Tuple[float, object]]] = None
    rounds: int = 21
    number: Tuple[int, int] = (1, 1)
    detail: Callable[[], dict] = dict


def _batch(run: Side, calls: int) -> Tuple[object, float]:
    """The last result of *calls* calls of *run*, and their seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(calls):
            result = run()
        return result, perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def paired(measured: Side, baseline: Side, rounds: int, number: Tuple[int, int] = (1, 1),
           same: Callable[[object, object], bool] = operator.eq) -> Tuple[float, dict, bool]:
    """The median over *rounds* of baseline's seconds per call over
    measured's, the side that runs first alternating; the per-call
    seconds of each side (medians) and the spread of the ratios; and
    whether *same* held for every round's two results."""
    sides = (measured, baseline)
    seconds: Tuple[List[float], List[float]] = ([], [])
    agreed = True
    for index in range(rounds):
        results: List[object] = [None, None]
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            results[side], elapsed = _batch(sides[side], number[side])
            seconds[side].append(elapsed / number[side])
        agreed = same(*results) and agreed
        del results  # freed here, not inside the next round's timing
    ratios = [old / new for new, old in zip(*seconds)]
    return median(ratios), {
        "measured_s": float(f"{median(seconds[0]):.4g}"),
        "baseline_s": float(f"{median(seconds[1]):.4g}"),
        "ratio_min": round(min(ratios), 2),
        "ratio_max": round(max(ratios), 2),
    }, agreed


def measure(row: Row) -> Tuple[dict, bool]:
    """*row*'s report entry, and whether every check held."""
    values, pairs, agreed = [], [], True
    for measured, baseline in row.pairs:
        if row.gauge is None:
            value, timing, same = paired(measured, baseline, row.rounds, row.number, row.same)
            pairs.append(timing)
        else:
            value, result = row.gauge(measured)
            same = baseline is None or row.same(result, baseline())
            del result
        values.append(value)
        agreed = agreed and same
    detail = {"rounds": row.rounds, "pairs": pairs} if row.gauge is None else {}
    value = round(min(values) if row.floor is not None else max(values), 2)
    return {"name": row.name, "unit": row.unit, "value": value, "floor": row.floor,
            "ceiling": row.ceiling, "detail": {**detail, **row.detail()}}, agreed


def run_suite(suite: str) -> List[str]:
    """Measure every row of *suite*, write its report; what broke."""
    entries, problems = [], []
    for row in SUITES[suite]():
        entry, agreed = measure(row)
        entries.append(entry)
        value, bound = entry["value"], row.floor if row.floor is not None else row.ceiling
        where = f"{suite}/{row.name} ({row.unit})"
        print(f"{where:48s} {value:>14,.2f}  ({'floor' if row.floor is not None else 'ceiling'} {bound:,})")
        if row.floor is not None and value < row.floor:
            problems.append(f"{where}: {value} below its floor {row.floor}")
        if row.ceiling is not None and value > row.ceiling:
            problems.append(f"{where}: {value} above its ceiling {row.ceiling}")
        if not agreed:
            problems.append(f"{where}: the two sides returned different or wrong results")
    report = {"suite": suite, "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "python": platform.python_version(), "rows": entries}
    (REPO / f"BENCH_{suite}.json").write_text(json.dumps(report, indent=2) + "\n")
    return problems


def main(argv: List[str]) -> int:
    unknown = [name for name in argv if name not in SUITES]
    if unknown:
        print(f"unknown suite(s) {', '.join(unknown)}; the suites are {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    problems = [problem for suite in argv or SUITES for problem in run_suite(suite)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


# ------------------------------------------------------------------ gauges


def _traced(run: Side) -> Tuple[int, int, object]:
    """The ``tracemalloc`` peak of *run* and what it left allocated when
    it returned (what it built), in bytes, and what it built."""
    tracemalloc.start()
    try:
        built = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept, built


def peak_mib(run: Side) -> Tuple[float, object]:
    peak, _, built = _traced(run)
    return peak / 2**20, built


def kept_mib(run: Side) -> Tuple[float, object]:
    _, kept, built = _traced(run)
    return kept / 2**20, built


# ------------------------------------------------------------------ crypto

KEY = bytes(range(32))
IV = bytes(16)
PAYLOAD_1K = bytes(i % 256 for i in range(1024))


def crypto() -> List[Row]:
    """The symmetric hot path -- OpenSSL's AES-CTR through
    :mod:`repro.crypto.libcrypto`, and the pseudonym permutation of
    :mod:`repro.crypto.prp` -- against the straight-line seed kept as
    ``tests/oracles/aes_reference.py`` (for pseudonyms, the paper's
    constant-IV CTR on the same 48-byte identifier block, so what the
    two sides share is the block size); and RSA's two raw operations on
    the OpenSSL handle of a fixed-seed 1024-bit key against CPython's
    builtin ``pow``, the results compared as integers."""
    hot_ids = [encode_identifier("user-%011d" % i) for i in range(64)]
    cold_id = encode_identifier("user-00000000042")
    provider = RealCryptoProvider()
    for identifier in hot_ids:  # steady state: memo warm
        provider.pseudonymize(KEY, identifier)

    def hot(pseudonymize):
        def run():
            for identifier in hot_ids:
                pseudonym = pseudonymize(KEY, identifier)
            return pseudonym
        return run

    public, private = generate_keypair(random.Random(7).randrange)
    value = random.Random(1).randrange(private.n)
    block = value.to_bytes(private.modulus_bytes, "big")
    private_handle, public_handle = private._handle, public._handle
    same_size = lambda a, b: len(a) == len(b)  # noqa: E731
    same_int = lambda raw, expected: int.from_bytes(raw, "big") == expected  # noqa: E731
    # Speedup floors, each about half of the lower end of what five runs
    # measured when they were set (a noisy 2-core host, CPython 3.11,
    # OpenSSL 3.0), for other interpreters, OpenSSL builds and machines.
    # Against the seed reference: ctr_transform_1KiB 678x to 1,262x,
    # real_provider_pseudonymize_hot64 278x to 545x (501x to 898x on 48-byte
    # ids), and pseudonym_prp_48B -- one cold pseudonym, the four BLAKE2b
    # rounds of repro.crypto.prp, against the paper's constant-IV CTR in
    # the oracle over the same 48-byte block -- 35x to 49x (6.1 to 10.6 us
    # against 283 to 481 us), six runs.  Against CPython's builtin pow:
    # rsa_private_1024 (one RSA_private_decrypt without padding on a loaded
    # key -- OpenSSL's CRT with cached Montgomery contexts, blinding and its
    # CRT check -- vs the no-CRT pow(value, d, n)) 37x to 42x (36x to 45x in
    # three earlier runs), where the two constant-time mod_pow calls and the
    # Python Garner step it replaced measured 28x to 30x on the same host;
    # rsa_public_1024 (one RSA_public_encrypt without padding on a loaded
    # key, vs pow(value, e, n)) 6.3x to 7.9x (5.7x to 6.2x earlier), where
    # one mod_pow call with the public e measured 2.3x to 2.5x.  Those
    # ranges are best-of-5 timeit readings; EXPERIMENTS.md has the median
    # of paired rounds beside them.
    return [
        Row("ctr_transform_1KiB", [(lambda: ctr.ctr_transform(KEY, IV, PAYLOAD_1K),
                                    lambda: reference_ctr_transform(KEY, IV, PAYLOAD_1K))],
            floor=350.0, number=(1000, 2)),
        Row("pseudonym_prp_48B", [(lambda: prp.encipher(KEY, cold_id),
                                   lambda: reference_det_encrypt(KEY, cold_id))],
            floor=18.0, same=same_size, number=(1000, 30)),
        Row("real_provider_pseudonymize_hot64",
            [(hot(provider.pseudonymize), hot(reference_det_encrypt))],
            floor=150.0, same=same_size, number=(500, 1)),
        Row("rsa_private_1024", [(lambda: private_handle.private_op(block),
                                  lambda: pow(value, private.d, private.n))],
            floor=18.0, same=same_int, number=(100, 3)),
        Row("rsa_public_1024", [(lambda: public_handle.public_op(block),
                                 lambda: pow(value, private.e, private.n))],
            floor=2.8, same=same_int, number=(1000, 200)),
    ]


# --------------------------------------------------------------------- lrs

SEED = 7
QUERIES = 400
#: Gets in the get phase of an 8 s ``macro_movielens`` run.
SERVED_GETS = 800


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
        "queries": QUERIES,
        "postings_read_share": round(read / available, 3),
        "decided_from_heads": len(survivors),
        "rescored_per_decided_query": round(sum(survivors) / len(survivors), 1) if survivors else 0.0,
    }


def _recommend(name: str, trace: SyntheticMovieLens, model: CcoModel, rounds: int, floor: float) -> Row:
    """``CcoModel.recommend`` itself over the benchmark's query mix --
    no engine, so no answer kept from a past query -- against the seed's
    ranking.  Each side builds its posting lists at its first query."""
    if type(model) is not CcoModel:
        raise TypeError(f"{name} times CcoModel.recommend, not {type(model).__name__}")
    by_user = trace.user_histories()
    histories = [by_user[user][-HISTORY_LIMIT:] for user in trace.query_users(QUERIES, random.Random(SEED))]
    return Row(name, [(lambda: [model.recommend(history) for history in histories],
                       lambda: [reference_recommend(model, history) for history in histories])],
               floor=floor, rounds=rounds, detail=lambda: _query_cost(model, histories))


def _serve(trace: SyntheticMovieLens, model: CcoModel) -> Row:
    """A fresh ``HarnessEngine`` per round, its answers not yet kept,
    serving the ``macro_movielens`` get mix against
    ``CcoModel.recommend`` run on every get."""
    store = _filled(EventStore(), trace.events)
    users = trace.query_users(SERVED_GETS, random.Random(SEED))

    def serve(engine: HarnessEngine) -> List[List[str]]:
        return [engine.get_recommendations(user) for user in users]

    def hit_ratio() -> dict:
        engine = HarnessEngine(store=store, model=model)
        serve(engine)
        return {"gets": SERVED_GETS, "hit_ratio": round(engine.hits / SERVED_GETS, 3)}

    return Row("serve_query_users_scale_0.1",
               [(lambda: serve(HarnessEngine(store=store, model=model)),
                 lambda: [model.recommend(store.user_history(user, limit=HISTORY_LIMIT)) for user in users])],
               floor=1.6, rounds=7, detail=hit_ratio)


def _filled(store, events):
    for user, item in events:
        store.insert(user, item)
    return store


def lrs() -> Iterator[Row]:
    """The three kernels ``macro_movielens`` pays that are not the
    proxy's -- the synthetic MovieLens generator, the CCO trainer and the
    CCO top-n query -- against the seed's bodies in
    ``tests/oracles/cco_reference.py``; each round compares what the two
    sides returned (events, genres, indicator lists with weights by their
    bits, popularity in order, every ranking).  The generator runs at
    ``scale=0.1`` -- the end-to-end benchmark's slice -- and at 0.3,
    where the larger floor pins *linear* growth (the seed's draw is
    quadratic, so its ratio to a linear one triples with the scale).
    ``recommend`` runs on the ``scale=0.1`` model, where every posting
    list is read whole, and on the paper's slice (``scale=1.0``), where
    the query is decided from the heads of the lists; each records, from
    an untimed pass, the share of its histories' postings it read and
    how many candidates it re-scored.  The ceilings are ``tracemalloc``
    readings: one training's peak and what the model it returns keeps
    alive, and what an ``EventStore`` holding the stream keeps, the
    identifier strings aside (the stream holds them already), against
    the seed's list of records (``tests/oracles/store_reference.py``).
    The paper's slice costs one traced training (about 5 s), whose model
    the last row queries, one oracle training compared with it (about
    15 s, 0.7 GiB RSS; not traced, its pair table would be at about
    0.7 GiB) and three oracle query passes (about 4 s each)."""
    trainer = CcoTrainer()
    trace = SyntheticMovieLens(seed=SEED, scale=0.1)
    model = trainer.train(trace.events)
    same_model = lambda a, b: model_in_order(a) == model_in_order(b)  # noqa: E731

    def generate(scale, rounds, floor):
        return Row(f"generate_scale_{scale}",
                   [(lambda: trace_in_order(SyntheticMovieLens(seed=SEED, scale=scale)),
                     lambda: trace_in_order(ReferenceMovieLens(seed=SEED, scale=scale)))],
                   floor=floor, rounds=rounds)

    train = (lambda: trainer.train(trace.events), lambda: reference_train(trainer, trace.events))
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
    # Those ranges are best-of-repeats readings.  The host stalls in
    # bursts that a 0.05 s kernel feels and a 0.6 s oracle does not (one
    # run of three repeats read 3.6x at scale 0.1, one of two read 9.9x
    # at 0.3, when the generator took 0.1 s): hence a median of rounds,
    # which one stalled round does not move, and eleven of them for the
    # 0.05 s generator, whose median reads 10-13x on a busy host.
    #
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
    # indicator, 1.55-1.77 as the arrays.  The store: 2.8 as one
    # FeedbackEvent per post, 0.61 as interned columns.  Each ceiling
    # leaves room for other interpreters' object sizes, not for the shape
    # before.
    yield generate(0.1, 11, 10.0)
    yield generate(0.3, 3, 20.0)
    yield Row("train_scale_0.1", [train], floor=2.7, same=same_model, rounds=5,
              detail=lambda: {"events": len(trace.events)})
    yield Row("train_peak_mib_scale_0.1", [train], ceiling=3.5, unit="MiB", same=same_model, gauge=peak_mib)
    yield Row("model_mib_scale_0.1", [(train[0], None)], ceiling=2.0, unit="MiB", gauge=kept_mib)
    yield Row("store_mib_scale_0.1", [(lambda: _filled(EventStore(), trace.events),
                                       lambda: _filled(ReferenceEventStore(), trace.events))],
              ceiling=1.0, unit="MiB", same=lambda a, b: a.dump() == b.dump(), gauge=kept_mib)
    yield _recommend("recommend_history_50", trace, model, 7, 2.4)
    yield _serve(trace, model)
    # The paper's slice is built only once the rows above are measured.
    paper = SyntheticMovieLens(seed=SEED, scale=1.0)
    trained = []  # the model of the traced training, which the next row queries

    def train_paper():
        trained.append(trainer.train(paper.events))
        return trained[-1]

    yield Row("train_peak_mib_paper_slice", [(train_paper, lambda: reference_train(trainer, paper.events))],
              ceiling=32.0, unit="MiB", same=same_model, gauge=peak_mib)
    yield _recommend("recommend_paper_slice", paper, trained.pop(), 3, 4.5)


# ------------------------------------------------------------------ simnet

#: Arrivals in the open-loop phase, at the e2e ledger's 1,000/s.
OPEN_LOOP_ARRIVALS = 100_000
OPEN_LOOP_RATE = 1_000.0


def _noop() -> None:
    pass


def pure_dispatch(loop, events: int = 600_000, chains: int = 5_000) -> None:
    """Concurrent delivery chains: post-only, no cancellations.

    *chains* messages are in flight at once (the working set of a
    loaded fabric), each rescheduling itself after a hop latency, so
    slots hold thousands of same-window events and the batched drain
    has real runs to consume.
    """
    state = {"left": events}
    post = loop.post

    def fire() -> None:
        left = state["left"]
        if left <= 0:
            return
        state["left"] = left - 1
        post(0.0004 + (left % 7) * 0.0001, fire)

    for index in range(chains):
        post(index * 0.0000002, fire)
    state["left"] -= chains
    loop.run(max_events=10 * events)


def mixed_churn(loop, requests: int = 250_000, rps: float = 100_000.0) -> None:
    """Open-loop arrivals with hedge/deadline/retransmit timer churn."""
    interval = 1.0 / rps
    schedule_at = loop.schedule_at
    post_at = loop.post_at
    state = {"i": 0}

    def arrival() -> None:
        i = state["i"]
        state["i"] = i + 1
        t = loop.now
        # Per-request cancellable timers: end-to-end deadline, hedge
        # fire, and one retransmit timer per forward hop.
        deadline = schedule_at(t + 10.0, _noop)
        hedge = schedule_at(t + 0.030, _noop)
        retransmits = [
            schedule_at(t + 0.2 + hop * 0.01, _noop) for hop in range(3)
        ]
        # Fire-and-forget deliveries (client->UA, UA->IA, IA->LRS).
        post_at(t + 0.0004, _noop)
        post_at(t + 0.0009, _noop)

        def complete() -> None:
            deadline.cancel()
            hedge.cancel()
            for handle in retransmits:
                handle.cancel()

        post_at(t + 0.0021, complete)
        if i + 1 < requests:
            post_at(t + interval, arrival)

    post_at(0.0, arrival)
    loop.run(max_events=100_000_000)


def resident_million(loop, requests_window: float = 2.5, rps: float = 100_000.0,
                     users: int = 1_000_000) -> None:
    """Mixed churn with one million live session timers resident."""
    schedule_at = loop.schedule_at
    for index in range(users):
        schedule_at(60.0 + (index % 997) * 0.06, _noop)
    interval = 1.0 / rps
    post_at = loop.post_at

    def arrival() -> None:
        t = loop.now
        deadline = schedule_at(t + 10.0, _noop)
        hedge = schedule_at(t + 0.030, _noop)
        post_at(t + 0.0004, _noop)
        post_at(t + 0.0009, _noop)

        def complete() -> None:
            deadline.cancel()
            hedge.cancel()

        post_at(t + 0.0021, complete)
        if t + interval < requests_window:
            post_at(t + interval, arrival)

    post_at(0.0, arrival)
    loop.run_until(requests_window + 1.0)


def _arrivals() -> None:
    """One no-op open-loop phase of :data:`OPEN_LOOP_ARRIVALS` arrivals."""
    loop = EventLoop()
    Injector(loop, random.Random(1)).inject(OPEN_LOOP_RATE, OPEN_LOOP_ARRIVALS / OPEN_LOOP_RATE,
                                             lambda done: None)
    loop.run()


def _samples() -> LatencyRecorder:
    """A recorder one phase's worth of samples in."""
    recorder = LatencyRecorder()
    draw = random.Random(2).random
    for index in range(OPEN_LOOP_ARRIVALS):
        recorder.record(index * 0.001, draw())
    return recorder


def _events_per_second(run: Side) -> Tuple[float, object]:
    loop, seconds = _batch(run, 1)
    return loop.events_processed / seconds, loop


def simnet() -> List[Row]:
    """The calendar-queue engine (:class:`repro.simnet.clock.EventLoop`:
    lazy cancellation, batched slot dispatch) against the seed heap loop
    kept as ``tests/oracles/heap_event_loop.py``, on three macro
    workloads that are all scheduler hot path: ``pure_dispatch`` --
    feed-forward ``post`` chains, the message-delivery profile, no
    cancellations; ``mixed_churn`` -- the headline: open-loop arrivals at
    100k RPS, each scheduling a deadline, a hedge and per-hop retransmit
    timers all cancelled at completion (the hedging/deadline/CoDel
    profile the proxies generate), plus three fire-and-forget deliveries;
    ``resident_million`` -- the same churn with one million live session
    timers resident, the million-user working set.  Each side runs once
    a round with the collector off, and the two must process the same
    number of events.  ``pure_dispatch`` (about 2 s a round) takes the
    median of three rounds: one round read 1.32x to 2.14x on a busy
    2-core host.  The other two (about 20 s a round) read one round,
    far above their floors.  The memory rows
    count with ``tracemalloc`` (deterministic on one Python version) the
    peak bytes a 100,000-arrival ``Injector`` phase costs per offered
    arrival and the bytes a ``LatencyRecorder`` keeps per sample.

    The floors are calibrated from measured reality with CI headroom.
    The honest like-for-like ceiling against CPython's C-implemented
    ``heapq`` is ~2-3x on these workloads (the classic calendar-queue
    10x results compare same-language implementations); the win at
    scale is larger because the engine also removes per-event handle
    allocation and unbounded cancelled-entry bloat -- see
    docs/architecture.md."""
    def engine(loop_type, workload):
        def run():
            loop = loop_type()
            workload(loop)
            return loop
        return run

    same_events = lambda a, b: a.events_processed == b.events_processed  # noqa: E731
    return [
        Row(workload.__name__, [(engine(EventLoop, workload), engine(HeapEventLoop, workload))],
            floor=floor, same=same_events, rounds=rounds)
        for workload, floor, rounds in ((pure_dispatch, 1.5, 3), (mixed_churn, 1.5, 1), (resident_million, 1.2, 1))
    ] + [
        # The headline workload's own throughput (conservative: CI
        # runners are slower than dev boxes).
        Row("mixed_churn", [(engine(EventLoop, mixed_churn), None)], floor=100_000.0,
            unit="events/s", gauge=_events_per_second),
        # The upfront loop kept as tests/oracles/injector_reference.py
        # costs ~300 B per arrival, a list of (time, latency) tuples 112
        # per sample.
        Row("bytes_per_arrival", [(_arrivals, None)], ceiling=64, unit="B",
            gauge=lambda run: (_traced(run)[0] / OPEN_LOOP_ARRIVALS, None)),
        Row("bytes_per_sample", [(_samples, None)], ceiling=24, unit="B",
            gauge=lambda run: (_traced(run)[1] / OPEN_LOOP_ARRIVALS, None)),
    ]


# --------------------------------------------------------------- telemetry

#: A ``ua`` record with a nested attribute map: eight flat fields, none
#: an identifier (a ``trace_id`` would be one), and seven attributes.
STAGE_SPAN = {
    "batch": 1041,
    "span_id": 6243,
    "name": "ua_inbound",
    "start": 12.251003,
    "status": "ok",
    "parent_id": 6242,
    "end": 12.376118,
    "duration": 0.125115,
    "attributes": {
        "instance": "pprox-ua-0",
        "service_seconds": 0.000412,
        "shuffle_wait_seconds": 0.124101,
        "ecalls": 2,
        "routing_pending": 9,
        "sgx_overhead_seconds": 0.000207,
        "epc_paging": False,
    },
}
PLANTED_ID = "item-31337"
LEAKING_SPAN = {**STAGE_SPAN, "attributes": {**STAGE_SPAN["attributes"], "backend": PLANTED_ID}}

#: Payloads per timed batch; the last one of each batch leaks.
BATCH = 50
BATCHES = 400


class OraclePolicy(RedactionPolicy):
    """The same policy scrubbing with the reference walk."""

    def scrub(self, role, payload):
        return reference_scrub(self, role, payload)


class _Kept(list):
    """A sink that keeps each record handed to it.  The timed sides emit
    into one, so a round pays ``emit``'s own work -- the scrub, the
    envelope -- and not the JSONL line both sides would write alike."""

    write = list.append


def _jsonl() -> JsonlSink:
    """The artifact's sink, over an in-memory text stream."""
    return JsonlSink(io.StringIO())


def _emitted(policy: RedactionPolicy, sink: Callable[[], object] = _Kept) -> Side:
    """One repeat: :data:`BATCHES` batches emitted into a fresh log."""
    def run() -> EventLog:
        log = EventLog(policy=policy, sink=sink())
        emit = log.emit
        for _ in range(BATCHES):
            for _ in range(BATCH - 1):
                emit("span", "ua", STAGE_SPAN)
            emit("span", "ua", LEAKING_SPAN)
        return log
    return run


def _kept_scrubbed(log: EventLog) -> bool:
    """:func:`_scrubbed`, the records a :class:`_Kept` sink holds
    written through the JSONL sink into an in-memory text stream."""
    sink = _jsonl()
    for event in log.sink:
        sink.write(event)
    return _scrubbed(log, sink)


def _scrubbed(log: EventLog, sink: JsonlSink) -> bool:
    """Every planted id redacted and recorded in what one repeat
    emitted, and nothing else touched: read back from what *sink*
    wrote, with nothing left for its re-check."""
    text = sink.stream.getvalue()
    records = EventLog.parse_jsonl(text)
    planted = [("ua", "item-id", "attributes.backend", PLANTED_ID)] * BATCHES
    envelope = {"time", "seq", "kind", "role"}
    return (
        len(log) == len(records) == BATCHES * BATCH
        and PLANTED_ID not in text
        and sum(record["attributes"].get("backend") == "[redacted:item-id]"
                for record in records) == BATCHES
        and [(v.role, v.kind, v.path, v.value) for v in log.violations] == planted
        and sink.leaks == []
        and {key: value for key, value in records[0].items() if key not in envelope}
        == reference_scrub(RedactionPolicy(), "ua", STAGE_SPAN)[0]
    )


def _us_per_record(run: Side) -> Tuple[float, object]:
    """Microseconds per record emitted, the median of five runs of *run*
    (collector off), and the last run's log."""
    seconds = []
    for _ in range(5):
        log, elapsed = _batch(run, 1)
        seconds.append(elapsed)
    return median(seconds) / (BATCHES * BATCH) * 1e6, log


#: Records a sink-less log counts in the memory row.
SINKLESS_RECORDS = 100_000


def _sinkless() -> EventLog:
    """A log with no sink, :data:`SINKLESS_RECORDS` records emitted."""
    log = EventLog()
    emit = log.emit
    for _ in range(SINKLESS_RECORDS):
        emit("span", "ua", STAGE_SPAN)
    return log


def _kept_per_record(run: Side) -> Tuple[float, object]:
    """Bytes *run*'s log holds per record it counted, and the log."""
    _, kept, log = _traced(run)
    return kept / SINKLESS_RECORDS, log


def telemetry() -> List[Row]:
    """``EventLog.emit`` of a representative nested ``ua`` payload -- a
    restricted role's record is scrubbed field by field, so the scrub is
    emit's own bill -- through two logs that differ in one thing: one
    scrubs with the single-pass ``RedactionPolicy.scrub``, the other with
    the recursive walk it replaced, kept as
    ``tests/oracles/redaction_reference.py``.  Each side of a round
    emits into a fresh log whose sink keeps what it is handed, so both
    keep the same events in the same amount of memory.  A floor that can
    be met by skipping the scrub is no floor: one payload in every batch
    carries a planted item id, and every round writes both sides'
    records through the JSONL sink into an in-memory text stream and
    checks what it reads back for each of them redacted and recorded as
    a boundary violation, no clean payload touched, and nothing left for
    the stream's audit.

    Floor: ``emit`` at >= 4x the throughput of ``emit`` over the oracle
    walk (measured 5.2-5.7x, best of seven repeats; scrub against walk
    with nothing stored, 6.4x).  With the JSONL line written inside the
    timed batch, both sides share about 15 us per record of encoding and
    re-checking the line, and the ratio reads 2.0x (1.4-2.8x over seven
    rounds): a floor on emit's own work cannot be read through it.

    Ceiling: the written path itself -- ``emit`` through the JSONL sink
    into an in-memory text stream, each record scrubbed, encoded and
    re-checked, what a run writing its artifact pays -- at most 40 us a
    record (median of five runs of the same batches, collector off;
    measured 19.8-24.5 us on a shared 2-vCPU host while the sink walked
    every record it wrote, 19.3 us once it walks only a record whose
    line shows a forbidden name or prefix -- here the planted one in
    each batch; the ceiling was 50), the last run checked as above.

    Ceiling: a log with no sink grows by at most 8 bytes per record it
    emits (``tracemalloc``, what it holds once emitting returns): it
    counts records and keeps none (0.00 B; a log keeping each record
    held 656 B), and it counted every one of them."""
    return [
        Row("emit_ua_stage_span", [(_emitted(RedactionPolicy()), _emitted(OraclePolicy()))],
            floor=4.0, same=lambda new, old: _kept_scrubbed(new) and _kept_scrubbed(old),
            rounds=7),
        Row("emit_jsonl_us_per_record",
            [(_emitted(RedactionPolicy(), _jsonl), lambda: BATCHES * BATCH)],
            ceiling=40.0, unit="us", gauge=_us_per_record,
            same=lambda log, records: len(log) == records and _scrubbed(log, log.sink)),
        Row("sinkless_bytes_per_record", [(_sinkless, lambda: SINKLESS_RECORDS)], ceiling=8,
            unit="B", gauge=_kept_per_record,
            same=lambda log, records: len(log) == log.counts["span"] == records),
    ]


# -------------------------------------------------------------------- wire

SHUFFLE_SIZE = 16  # the paper's default S
RSA_CIPHERTEXT_BYTES = RSA_BITS // 8


def _deterministic_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(length))


def wire() -> List[Row]:
    """The binary wire codec against the seed JSON wire on the
    protected-hop payload paths, the batch envelope (one hybrid RSA-OAEP
    seal per shuffle flush) against per-request envelopes, and a
    forwarded hop against a re-encoded one.  Floors:

    * ``item_payload_roundtrip`` >= 5x encode+decode on the
      recommendation item payload (the volume path: fixed-size
      identifier lists, §4.3) -- binary concatenates and slices raw
      48-byte blobs where the seed JSON wire paid base64 both ways, one
      entry at a time, plus list serialization.  The denominator is that
      seed expression itself (``tests/oracles/item_list_reference.py``),
      not today's :class:`JsonCodec`, which writes the same bytes
      without ``json.dumps`` and so is no longer the seed;
    * ``json_item_payload_vs_seed`` >= 2x on the same payload for
      today's JSON wire against the seed one (measures 2.2-2.9x): the
      JSON item list must keep its gain;
    * ``response_frame_roundtrip`` >= 2.5x (the 1 KiB sealed
      recommendation blob: base64 inflation + JSON string escaping vs a
      zero-copy length-prefixed field; measures ~3.1x, floored with CI
      headroom);
    * ``envelope_flush_S16_rsa1024`` >= 3x per-request envelope cost
      reduction for ``seal_batch``/``open_batch`` over
      ``seal_each``/``open_each`` at the default shuffle size S=16
      (RSA-1024, :class:`RealCryptoProvider` -- the paper's crypto
      configuration);
    * ``request_frame_roundtrip`` >= 1.0x (a no-regression guard, not a
      speedup claim) on the small request frame: tiny frames are
      dominated by message construction, which both codecs pay, and the
      C-accelerated ``json`` module is genuinely fast there -- the binary
      win on that path is the wire *size* (no base64), which the row
      also records.  Raised from 0.9 once the binary decoder read the
      frame in place and the encoder packed each entry head in one call:
      1.06-1.10x in 30 of 30 runs of the suite (2 vCPU, CPython 3.11),
      where both sides also got cheaper (message construction, the
      compact JSON encoder built once);
    * ``hop_forward`` >= 1.55x under both codecs (binary, then json; the
      floor applies to the codec that gains least; measures 1.58-1.65x
      in 30 of 30 runs, raised from 1.5): one whole hop of a 20-item
      response -- :func:`ship`, a real :class:`Network`, the receiver's
      parse -- for a message the hop left untouched (its bytes are
      forwarded) against the same message rewritten by ``with_fields``
      (encoded again).  The receiver parses in both, and the timed call
      checks the fields it got: a floor that could be met by skipping
      the parse would be no floor.  The ratio read 1.7-1.9x while both
      the parse and the re-encode cost more; it is lower now because
      the re-encode it saves got cheaper than the hop it shares."""
    rng = random.Random(20260808)
    item_blobs = EnvelopeCodec.encode_identifiers(pad_item_list([f"item-{index:04d}" for index in range(10)]))
    # Deterministic stand-ins for the crypto-boundary values.
    pseudonym = _deterministic_bytes(rng, FIXED_ID_BYTES)
    tmpkey_sealed = _deterministic_bytes(rng, RSA_CIPHERTEXT_BYTES)
    # sym_encrypt(k_u, pack_items(...)) sized: payload + IV.
    response_blob = _deterministic_bytes(rng, len(item_blobs) * FIXED_ID_BYTES + 16)

    def item_payload(codec):
        # IA encodes the padded identifier list; the client-side
        # library slices it back out after sym_decrypt.
        return lambda: codec.unpack_items(codec.pack_items(item_blobs))

    def seed_item_payload():
        return seed_json_unpack_items(seed_json_pack_items(item_blobs))

    def response(codec):
        return Response(status=200, fields={"blob": codec.wire_value(response_blob)}, request_id=1)

    def request(codec):
        # A UA->IA get(u) as it leaves the shuffler: pseudonym text,
        # sealed temporary key, stamped deadline and trace id.
        return Request(verb=Verb.GET, fields={
            "user": EnvelopeCodec.wire_text(pseudonym), "tmpkey": codec.wire_value(tmpkey_sealed),
            "deadline": "000004.50000", "trace": "0123456789abcdef",
        }, request_id=1, client_address="ua-0")

    def response_frame(codec):
        # IA -> UA leg of a recommendation: blob to wire form, frame
        # encode, frame decode, blob back to the crypto boundary.
        def run():
            decoded = codec.decode_response(codec.encode_response(response(codec)))
            return codec.blob_value(decoded.fields["blob"])
        return run

    def request_frame(codec):
        message = request(codec)
        return lambda: codec.blob_value(
            codec.decode_request(codec.encode_request(message), verb=Verb.GET).fields["tmpkey"])

    def sizes(size):
        return lambda: {f"{codec.name}_bytes": size(codec) for codec in (BINARY_WIRE_CODEC, JSON_WIRE_CODEC)}

    provider = RealCryptoProvider()
    keys = KeyFactory(rng_int=rng.randrange, rng_bytes=lambda n: _deterministic_bytes(rng, n)).layer_keys()
    envelopes = EnvelopeCodec(provider)
    frames = [
        BINARY_WIRE_CODEC.encode_request(Request(
            verb=Verb.GET,
            fields={"user": EnvelopeCodec.wire_text(_deterministic_bytes(rng, FIXED_ID_BYTES)),
                    "tmpkey": _deterministic_bytes(rng, RSA_CIPHERTEXT_BYTES)},
            request_id=index, client_address="ua-0"))
        for index in range(SHUFFLE_SIZE)
    ]
    items = [EnvelopeCodec.wire_text(_deterministic_bytes(rng, FIXED_ID_BYTES)) for _ in range(20)]

    def hop(codec, rewrite):
        loop = EventLoop()
        network = Network(loop=loop, rng=random.Random(1))
        # As the hop got it: parsed off the wire, so it remembers its bytes.
        arrived = WireFrame.for_message(codec, Response(status=200, fields={"items": items}, request_id=1)).decode()
        message = arrived.with_fields() if rewrite else arrived  # same value, built here: no memo
        assert arrived.arrived_as is not None and (message.arrived_as is None) == rewrite
        delivered = []

        def run():
            ship(network, codec, "ia-0", "ua-0", message, delivered.append)
            loop.run()
            got = delivered.pop().fields["items"]
            if got != items:
                raise AssertionError("receiver did not parse what was sent")
            return got
        return run

    return [
        Row("item_payload_roundtrip", [(item_payload(BINARY_WIRE_CODEC), seed_item_payload)],
            floor=5.0, number=(1000, 200)),
        Row("json_item_payload_vs_seed", [(item_payload(JSON_WIRE_CODEC), seed_item_payload)],
            floor=2.0, number=(500, 300)),
        Row("response_frame_roundtrip", [(response_frame(BINARY_WIRE_CODEC), response_frame(JSON_WIRE_CODEC))],
            floor=2.5, number=(2000, 500),
            detail=sizes(lambda codec: codec.response_size_bytes(response(codec)))),
        Row("request_frame_roundtrip", [(request_frame(BINARY_WIRE_CODEC), request_frame(JSON_WIRE_CODEC))],
            floor=1.0, number=(1000, 1000),
            detail=sizes(lambda codec: codec.request_size_bytes(request(codec)))),
        Row(f"envelope_flush_S{SHUFFLE_SIZE}_rsa{RSA_BITS}",
            [(lambda: envelopes.open_batch(keys, envelopes.seal_batch(keys.public_material, frames)),
              lambda: envelopes.open_each(keys, envelopes.seal_each(keys.public_material, frames)))],
            floor=3.0, same=lambda batch, each: list(map(bytes, batch)) == each == frames, number=(50, 4)),
        Row("hop_forward", [(hop(codec, False), hop(codec, True)) for codec in (BINARY_WIRE_CODEC, JSON_WIRE_CODEC)],
            floor=1.55, number=(1000, 500)),
    ]


SUITES: Dict[str, Callable[[], Iterable[Row]]] = {
    "crypto": crypto, "lrs": lrs, "simnet": simnet, "telemetry": telemetry, "wire": wire,
}

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
