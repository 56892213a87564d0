"""``benchmarks/ledger.py``'s runner on toy rows: the paired timing
kernel, the bound and result checks that set the exit status, and the
one report schema.  No real suite runs; a fake clock times the sides."""

from __future__ import annotations

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ledger", REPO / "benchmarks" / "ledger.py")
ledger = sys.modules["ledger"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(ledger)


@pytest.fixture
def clock(monkeypatch):
    """A clock only the toy sides move."""
    now = [0.0]
    monkeypatch.setattr(ledger, "perf_counter", lambda: now[0])
    return now


def _side(clock, seconds, results=None, calls=None):
    """A side that takes *seconds* (a number, or one per call in turn)
    of the fake clock and returns *results* (the same, or one per call)."""
    durations = iter(seconds) if isinstance(seconds, list) else None
    answers = iter(results) if isinstance(results, list) else None

    def run():
        if calls is not None:
            calls.append((run, gc.isenabled()))
        clock[0] += next(durations) if durations else seconds
        return next(answers) if answers else results
    return run


def test_the_kernel_alternates_the_first_side_and_reads_the_median_ratio(clock):
    calls = []
    measured = _side(clock, 1.0, calls=calls)
    baseline = _side(clock, [2.0, 8.0, 3.0, 5.0, 100.0], calls=calls)
    ratio, timing, agreed = ledger.paired(measured, baseline, rounds=5, number=(2, 1))
    order = "".join("m" if side is measured else "b" for side, _ in calls)
    assert order == "mmb" "bmm" "mmb" "bmm" "mmb"
    assert not any(collecting for _, collecting in calls)  # the collector is off in a batch
    assert gc.isenabled()
    assert (ratio, agreed) == (5.0, True)
    assert timing == {"measured_s": 1.0, "baseline_s": 5.0, "ratio_min": 2.0, "ratio_max": 100.0}


def _run(monkeypatch, tmp_path, *rows):
    monkeypatch.setattr(ledger, "REPO", tmp_path)
    monkeypatch.setattr(ledger, "SUITES", {"toy": lambda: list(rows)})
    status = ledger.main(["toy"])
    return status, json.loads((tmp_path / "BENCH_toy.json").read_text())


def test_rows_within_their_bounds_pass_and_write_the_one_schema(monkeypatch, tmp_path, clock):
    status, report = _run(
        monkeypatch, tmp_path,
        ledger.Row("ratio", [(_side(clock, 1.0, "a"), _side(clock, 3.0, "a"))], floor=2.0, rounds=3,
                   detail=lambda: {"queries": 4}),
        ledger.Row("gauge", [(lambda: 3.0, lambda: 3.0)], ceiling=4.0, unit="MiB",
                   gauge=lambda run: (run(), run())),
    )
    assert status == 0
    assert set(report) == {"suite", "generated_utc", "python", "rows"} and report["suite"] == "toy"
    ratio, gauge = report["rows"]
    assert ratio == {"name": "ratio", "unit": "x", "value": 3.0, "floor": 2.0, "ceiling": None,
                     "detail": {"rounds": 3, "queries": 4, "pairs": [
                         {"measured_s": 1.0, "baseline_s": 3.0, "ratio_min": 3.0, "ratio_max": 3.0}]}}
    assert gauge == {"name": "gauge", "unit": "MiB", "value": 3.0, "floor": None, "ceiling": 4.0,
                     "detail": {}}


@pytest.mark.parametrize("broken", ["floor", "least pair", "ceiling", "sides differ", "wrong once"])
def test_a_broken_bound_or_a_wrong_result_exits_1(monkeypatch, tmp_path, clock, broken):
    fast = (_side(clock, 1.0, "a"), _side(clock, 10.0, "a"))
    row = {
        "floor": ledger.Row("r", [(_side(clock, 1.0), _side(clock, 1.5))], floor=2.0),
        # Two pairs: the floor holds the one that gains least.
        "least pair": ledger.Row("r", [fast, (_side(clock, 1.0), _side(clock, 1.5))], floor=2.0),
        "ceiling": ledger.Row("r", [(lambda: 5.0, None)], ceiling=4.0, unit="B",
                              gauge=lambda run: (run(), None)),
        # Under its ceiling, but what it built is not what the baseline built.
        "sides differ": ledger.Row("r", [(lambda: 1.0, lambda: 2.0)], ceiling=4.0, unit="MiB",
                                   gauge=lambda run: (run(), run())),
        # Ten times faster, and wrong in one early round only.
        "wrong once": ledger.Row("r", [(_side(clock, 1.0, ["a", "b", "a", "a", "a"]),
                                        _side(clock, 10.0, "a"))], floor=2.0, rounds=5),
    }[broken]
    status, report = _run(monkeypatch, tmp_path, row)
    assert status == 1
    assert report["rows"][0]["value"] == {"floor": 1.5, "least pair": 1.5, "ceiling": 5.0,
                                          "sides differ": 1.0, "wrong once": 10.0}[broken]


def test_an_unknown_suite_is_refused(capsys):
    assert ledger.main(["crypto", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err
