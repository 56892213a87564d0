"""Compare two ledgers written by ``run.py --out``: B against base A.

``python3 benchmarks/e2e/compare.py A.json B.json [--same-seed]``

Applies the regression bounds of ``BENCHMARK.json`` to every pairing of
end-to-end metric and workload, one row each, with both values and the
ratio B/A (base A).  A pair within its bound is *unchanged* only if the
spread inside each run (segment quartiles of ``wall_us_per_req``, the
set-up samples of ``setup_s``) is itself within the bound; otherwise it
is *unresolved* — one run per side cannot tell.  Exits non-zero on a
breach.

``--same-seed`` is for two ledgers of the same code at the same seed:
everything the seed determines (simulated latencies, failures, exact
counts) must then be identical, and a difference is a breach too.  The
``meta`` block of a ledger is ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: Not in ``BENCHMARK.json`` (the driver wants metrics that are never
#: zero; it gets failures through ``failed``/``attempted``), but held
#: to a bound of +0 here.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}

#: Per-layer metrics that are a pure function of the seed.
SEED_DETERMINED = (
    "client.calls_per_req", "crypto.asym_decrypt_per_req", "crypto.sym_bytes_per_req",
    "crypto.pseudonym_memo_hit_ratio", "rest.wire_bytes_per_req", "envelope.batches",
    "envelope.reqs_per_batch", "shuffler.flushes", "shuffler.full_flush_ratio",
    "shuffler.sim_wait_ms", "layers.sheds", "layers.transform_errors", "sgx.ecalls_per_req",
    "sgx.sim_overhead_ms", "lrs.requests", "simnet.events_per_req", "simnet.sends_per_req",
    "simnet.peak_pending", "telemetry.events_per_req", "telemetry.spans_per_req",
)
SEED_DETERMINED_END_TO_END = ("sim_p50_ms", "sim_p99_ms", "failed_share")


def inner_spread(metric: Dict[str, Any]) -> Optional[float]:
    """Spread inside one run, as a share of its value, where recorded."""
    if not metric["value"]:
        return None
    if "q1" in metric:
        return (metric["q3"] - metric["q1"]) / metric["value"]
    if "samples" in metric:
        return (max(metric["samples"]) - min(metric["samples"])) / metric["value"]
    return None


def judge(entry: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, str]:
    """``(ratio text, verdict)`` for one metric of one workload."""
    base, other, bound = a["value"], b["value"], entry["bound"]
    if base == other:
        return "1.0000", "unchanged"
    if not base or not other:
        worse = (other > base) == (entry["better"] == "lower")
        return "n/a", "BREACH" if worse else "better"
    ratio = other / base
    worse_by = ratio - 1.0 if entry["better"] == "lower" else base / other - 1.0
    if worse_by > bound:
        verdict = "BREACH"
    elif any((spread or 0.0) > bound for spread in (inner_spread(a), inner_spread(b))):
        verdict = "unresolved"
    else:
        verdict = "better" if worse_by < -bound else "unchanged"
    return f"{ratio:.4f}", verdict


def compare(a: Dict[str, Any], b: Dict[str, Any], same_seed: bool) -> Tuple[List[tuple], int]:
    rows: List[tuple] = []
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for entry in SPEC["end_to_end"] + [FAILED_SHARE]:
            name = entry["name"]
            metric_a, metric_b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            ratio, verdict = judge(entry, metric_a, metric_b)
            if (same_seed and name in SEED_DETERMINED_END_TO_END
                    and metric_a["value"] != metric_b["value"]):
                verdict = "BREACH (differs at the same seed)"
            rows.append((workload, name, metric_a["value"], metric_b["value"],
                         entry["unit"], ratio, f"+{entry['bound']:.0%}", verdict))
        if same_seed:
            for name in SEED_DETERMINED:
                metric_a, metric_b = side_a["per_layer"][name], side_b["per_layer"][name]
                same = metric_a["value"] == metric_b["value"]
                rows.append((workload, name, metric_a["value"], metric_b["value"],
                             metric_a["unit"], "1.0000" if same else "n/a", "exact",
                             "identical" if same else "BREACH (differs at the same seed)"))
        for side, label in ((side_a, "A"), (side_b, "B")):
            if not side["correct"]:
                rows.append((workload, f"correct ({label})", 0, 0, "", "n/a", "", "BREACH (oracle)"))
    breaches = sum(1 for row in rows if row[-1].startswith("BREACH"))
    return rows, breaches


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="base ledger")
    parser.add_argument("b", help="ledger compared with the base")
    parser.add_argument("--same-seed", action="store_true",
                        help="also require seed-determined metrics to be identical")
    args = parser.parse_args(argv)
    ledgers = [json.loads(Path(path).read_text()) for path in (args.a, args.b)]
    rows, breaches = compare(ledgers[0], ledgers[1], args.same_seed)
    print(f"{'workload':16s} {'metric':32s} {'A':>14s} {'B':>14s} {'unit':6s}"
          f" {'B/A':>8s} {'bound':>6s}  verdict")
    for workload, name, value_a, value_b, unit, ratio, bound, verdict in rows:
        print(f"{workload:16s} {name:32s} {value_a:14.6g} {value_b:14.6g} {unit:6s}"
              f" {ratio:>8s} {bound:>6s}  {verdict}")
    print(f"{breaches} breach(es); ratios are B/A, base A = {args.a}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
