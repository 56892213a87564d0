"""Emit ``BENCH_simnet.json``: calendar-queue engine vs seed heap loop.

Measures the rebuilt simulation engine
(:class:`repro.simnet.clock.EventLoop`, a calendar queue with lazy
cancellation and batched slot dispatch) against the seed binary-heap
implementation preserved as the test oracle
``tests/oracles/heap_event_loop.py``, and writes the results to
``BENCH_simnet.json`` at the repository root::

    PYTHONPATH=src python benchmarks/run_simnet_bench.py

Three macro workloads, all pure scheduler hot path:

* ``pure_dispatch``    — feed-forward ``post`` chains, the message-
  delivery profile: no cancellations, maximal batched-drain benefit.
* ``mixed_churn``      — the headline mixed scheduler-churn workload:
  open-loop arrivals at 100k RPS where every request schedules a
  deadline timer, a hedge timer and per-hop retransmit timers that are
  all cancelled at completion (the hedging/deadline/CoDel profile the
  proxies generate), plus three fire-and-forget deliveries.
* ``resident_million`` — the same churn with one million live session
  timers resident in the queue, the million-user working set: insert
  depth and memory pressure at scale-sweep size.

GC is disabled inside the measured window (pyperf-style) so the floors
gate scheduler cost, not collector scheduling noise; the report also
records sim-seconds per wall-second and the peak live queue depth.

One memory row, ``open_loop_memory``, counted with ``tracemalloc``
(deterministic on one Python version): the peak bytes a 100,000-arrival
``Injector`` phase costs per offered arrival — against the upfront loop
kept as ``tests/oracles/injector_reference.py`` — and the resident bytes
per ``LatencyRecorder`` sample.  Both have a ceiling.

Floors are calibrated from measured reality with CI headroom.  The
honest like-for-like ceiling against CPython's C-implemented ``heapq``
is ~2-3x on these workloads (the classic calendar-queue 10x results
compare same-language implementations); the end-to-end win at scale is
larger because the engine also removes per-event handle allocation and
unbounded cancelled-entry bloat — see docs/architecture.md.
"""

from __future__ import annotations

import gc
import json
import pathlib
import platform
import random
import sys
import time
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives with the tests

from repro.simnet.clock import EventLoop  # noqa: E402
from repro.simnet.metrics import LatencyRecorder  # noqa: E402
from repro.workload.injector import Injector  # noqa: E402
from tests.oracles.heap_event_loop import HeapEventLoop  # noqa: E402
from tests.oracles.injector_reference import UpfrontInjector  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simnet.json"

#: Minimum calendar/reference events-per-second ratio per workload.
SPEEDUP_FLOORS = {
    "pure_dispatch": 1.5,
    "mixed_churn": 1.5,
    "resident_million": 1.2,
}

#: Absolute floor on the calendar engine's throughput for the headline
#: workload (conservative: CI runners are slower than dev boxes).
ABSOLUTE_FLOORS_EV_S = {
    "mixed_churn": 100_000.0,
}

#: Ceilings on ``open_loop_memory`` (bytes; the upfront loop costs
#: ~300 per arrival, a list of ``(time, latency)`` tuples 112 a sample).
MEMORY_CEILINGS_BYTES = {
    "bytes_per_arrival": 64,
    "bytes_per_sample": 24,
}

#: Arrivals in the measured phase, at the e2e ledger's 1,000/s.
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


WORKLOADS = {
    "pure_dispatch": pure_dispatch,
    "mixed_churn": mixed_churn,
    "resident_million": resident_million,
}


def _run_one(engine_cls, workload) -> dict:
    loop = engine_cls()
    gc.collect()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        workload(loop)
        wall = time.perf_counter() - wall_start
    finally:
        gc.enable()
    stats = loop.queue_stats()
    return {
        "events_processed": loop.events_processed,
        "wall_seconds": round(wall, 4),
        "events_per_second": round(loop.events_processed / wall, 1),
        "sim_seconds_per_wall_second": round(loop.now / wall, 3),
        "peak_queue_depth": stats.get("peak_pending"),
        "cancels": stats.get("cancels_total"),
        "compactions": stats.get("compactions"),
    }


def _arrival_bytes(injector_type) -> float:
    """Peak traced bytes per offered arrival of one no-op phase."""
    loop = EventLoop()
    injector = injector_type(loop, random.Random(1))
    tracemalloc.start()
    try:
        injector.inject(OPEN_LOOP_RATE, OPEN_LOOP_ARRIVALS / OPEN_LOOP_RATE, lambda done: None)
        loop.run()
        return tracemalloc.get_traced_memory()[1] / OPEN_LOOP_ARRIVALS
    finally:
        tracemalloc.stop()


def _sample_bytes() -> float:
    """Traced bytes a recorder holds per sample, one phase's worth in."""
    recorder = LatencyRecorder()
    draw = random.Random(2).random
    tracemalloc.start()
    try:
        for index in range(OPEN_LOOP_ARRIVALS):
            recorder.record(index * 0.001, draw())
        return tracemalloc.get_traced_memory()[0] / OPEN_LOOP_ARRIVALS
    finally:
        tracemalloc.stop()


def _measure_memory() -> dict:
    return {
        "arrivals": OPEN_LOOP_ARRIVALS,
        "rate_per_second": OPEN_LOOP_RATE,
        "bytes_per_arrival": round(_arrival_bytes(Injector), 1),
        "reference_bytes_per_arrival": round(_arrival_bytes(UpfrontInjector), 1),
        "bytes_per_sample": round(_sample_bytes(), 1),
    }


def _measure() -> dict:
    results = {}
    for name, workload in WORKLOADS.items():
        reference = _run_one(HeapEventLoop, workload)
        calendar = _run_one(EventLoop, workload)
        results[name] = {
            "calendar": calendar,
            "reference": reference,
            "speedup": round(
                calendar["events_per_second"] / reference["events_per_second"], 2
            ),
        }
    return results


def main() -> int:
    output = DEFAULT_OUTPUT
    argv = sys.argv[1:]
    if "--output" in argv:
        output = pathlib.Path(argv[argv.index("--output") + 1])
    results = _measure()
    memory = _measure_memory()
    report = {
        "benchmark": "simnet event loop, calendar queue vs seed reference heap",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "units": "events per second of virtual-time dispatch (gc disabled in window)",
        "speedup_floors": SPEEDUP_FLOORS,
        "absolute_floors_events_per_second": ABSOLUTE_FLOORS_EV_S,
        "memory_ceilings_bytes": MEMORY_CEILINGS_BYTES,
        "results": results,
        "open_loop_memory": memory,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in results.items():
        cal, ref = entry["calendar"], entry["reference"]
        print(
            f"{name:18s} calendar {cal['events_per_second']:>12,.0f} ev/s"
            f"  (seed {ref['events_per_second']:>12,.0f} ev/s, {entry['speedup']:.2f}x,"
            f" peak depth {cal['peak_queue_depth']:,})"
        )
    print(
        f"{'open_loop_memory':18s} {memory['bytes_per_arrival']:,.1f} B/arrival"
        f" (upfront {memory['reference_bytes_per_arrival']:,.1f}),"
        f" {memory['bytes_per_sample']:,.1f} B/sample"
    )
    print(f"\nwrote {output}")

    failed = []
    for name, floor in SPEEDUP_FLOORS.items():
        if results[name]["speedup"] < floor:
            failed.append(f"{name}: {results[name]['speedup']}x < {floor}x")
    for name, floor in ABSOLUTE_FLOORS_EV_S.items():
        measured = results[name]["calendar"]["events_per_second"]
        if measured < floor:
            failed.append(f"{name}: {measured:,.0f} ev/s < {floor:,.0f} ev/s")
    for name, ceiling in MEMORY_CEILINGS_BYTES.items():
        if memory[name] > ceiling:
            failed.append(f"open_loop_memory {name}: {memory[name]} B > {ceiling} B")
    if failed:
        print("PERF FLOOR VIOLATED: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
