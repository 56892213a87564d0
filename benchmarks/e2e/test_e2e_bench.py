"""Self-test of the end-to-end benchmark: a tiny pass of all five workloads.

Run explicitly (it is not part of the tier-1 ``testpaths``, and takes
about two minutes because every pass pays RSA key generation in a
fresh process)::

    python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
#: 1/20 of the benchmark's run length: 100 gets on ``micro_get``.
SECONDS = 0.5
NAMES = [entry["name"] for entry in run.SPEC["workloads"]]


@pytest.fixture(scope="module")
def ledgers():
    """Two complete same-seed passes, in ``run.py --out`` form."""
    return [{"meta": {}, "workloads": run.run_suite(NAMES, SEED, SECONDS)} for _ in range(2)]


def test_benchmark_json_names_the_workloads_the_harness_has():
    assert NAMES == list(WORKLOADS)
    assert run.SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", NAMES)
def test_emitted_names_equal_declared_names(ledgers, name):
    result = ledgers[0]["workloads"][name]
    declared = [entry["name"] for entry in run.SPEC["end_to_end"]]
    assert sorted(result["end_to_end"]) == sorted(declared + ["failed_share"])
    declared = [entry["name"] for entry in run.SPEC["per_layer"]]
    assert sorted(result["per_layer"]) == sorted(declared)
    for entry in run.SPEC["end_to_end"] + run.SPEC["per_layer"]:
        kind = "end_to_end" if "bound" in entry else "per_layer"
        assert result[kind][entry["name"]]["unit"] == entry["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_outputs_are_correct_and_nothing_fails(ledgers, name):
    for ledger in ledgers:
        result = ledger["workloads"][name]
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 10
        assert result["end_to_end"]["failed_share"]["value"] == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_matches_untraced_pass(ledgers, name):
    # measure_per_layer turns any difference in simulated metrics, exact
    # counts, accounting or oracle verdicts into a problem.
    result = ledgers[0]["workloads"][name]
    assert not [problem for problem in result["problems"] if "differ" in problem]
    assert result["per_layer"]["trace.attributed_share"]["value"] >= 0.90


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_exactly(ledgers, name):
    first, second = (ledger["workloads"][name] for ledger in ledgers)
    for metric in ("sim_p50_ms", "sim_p99_ms"):
        assert first["end_to_end"][metric]["value"] == second["end_to_end"][metric]["value"]
    for metric in ("simnet.events_per_req", "rest.wire_bytes_per_req"):
        assert first["per_layer"][metric]["value"] == second["per_layer"][metric]["value"]


def test_compare_accepts_a_ledger_against_itself_and_flags_changes(ledgers):
    base = ledgers[0]
    rows, breaches = compare.compare(base, copy.deepcopy(base), same_seed=True)
    assert breaches == 0 and rows

    slower = copy.deepcopy(base)
    slower["workloads"]["micro_get"]["end_to_end"]["wall_us_per_req"]["value"] *= 1.5
    assert compare.compare(base, slower, same_seed=False)[1] == 1

    drifted = copy.deepcopy(base)
    drifted["workloads"]["micro_post"]["per_layer"]["simnet.events_per_req"]["value"] += 1
    assert compare.compare(base, drifted, same_seed=False)[1] == 0
    assert compare.compare(base, drifted, same_seed=True)[1] == 1

    failing = copy.deepcopy(base)
    failing["workloads"]["micro_get"]["end_to_end"]["failed_share"]["value"] = 0.01
    assert compare.compare(base, failing, same_seed=False)[1] == 1


def test_driver_mode_prints_one_result_object(capsys):
    code = run.main(["--workload", "passthrough_get", "--seed", "11",
                     "--seconds", str(SECONDS), "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [entry["name"] for entry in run.SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
