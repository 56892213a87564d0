"""Codec-parity scenario: one traffic mix, both wire formats.

Runs the same seeded get/post mix under
:class:`~repro.rest.codec.JsonCodec` (the reference: the paper's REST
bodies, pinned to the seed bytes by ``tests/test_wire_golden.py``) and
:class:`~repro.rest.codec.BinaryCodec` (batch envelopes armed), once
with the default and once with the hardened client hop, an adversary
wiretap attached throughout.  Each run yields a timing-free semantic
artifact — per-request outcomes in issue order plus the
:mod:`repro.privacy.wire` auditor verdicts — and the two must be
identical: the wire format may change bytes, never results, and the
binary format must pass the same epoch/trace/reject audits as the JSON
wire while actually exercising the batch-envelope path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.context import Deployment, SimContext
from repro.experiments.rig import observe_wire, pseudonymise_stub, stub_lrs, write_json
from repro.privacy.wire import epoch_tag_exposures, trace_field_exposures
from repro.proxy.config import PProxConfig

__all__ = ["run_parity", "gate", "SEED", "REQUESTS"]

SEED = 42
#: Requests per run, alternating get/post over five users.
REQUESTS = 24


def run_parity(codec: str, harden: bool) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """One run under *codec*; returns ``(semantic artifact, counters)``."""
    ctx = SimContext.fresh(seed=SEED, codec=codec)
    stub = stub_lrs(ctx)
    config = PProxConfig(shuffle_size=4, harden_client_hop=harden)
    deployment = Deployment.build(ctx=ctx, config=config, lrs_picker=lambda: stub)
    pseudonymise_stub(stub, deployment)
    adversary, rejects = observe_wire(ctx.network)
    client = deployment.client()
    outcomes: List[Optional[Dict[str, Any]]] = [None] * REQUESTS

    def record(index: int, kind: str):
        def on_complete(call) -> None:
            items = sorted(str(item) for item in (call.items or ()))
            outcomes[index] = {"kind": kind, "ok": call.ok, "items": items}

        return on_complete

    for index in range(REQUESTS):
        user, when = f"user-{index % 5}", 0.4 * (index + 1)
        if index % 2:
            ctx.loop.schedule_at(when, lambda user=user, index=index: client.post(
                user, f"item-{index}", on_complete=record(index, "post")))
        else:
            ctx.loop.schedule_at(when, lambda user=user, index=index: client.get(
                user, on_complete=record(index, "get")))
    ctx.loop.run_until(0.4 * REQUESTS + 60.0)
    artifact = {
        "config": {"shuffle_size": 4, "harden_client_hop": harden,
                   "seed": SEED, "requests": REQUESTS},
        "outcomes": outcomes,
        "audit": {
            "epoch_tag_exposures": epoch_tag_exposures(adversary.observations),
            "trace_field_exposures": trace_field_exposures(adversary.observations),
            "reject_uniformity": rejects.violations(),
        },
    }
    service = deployment.service
    counters = {
        "batch_envelopes_sealed": sum(i.batch_envelopes_sealed for i in service.ua_instances),
        "batch_envelopes_opened": sum(i.batch_envelopes_opened for i in service.ia_instances),
        "observations": len(adversary.observations),
    }
    return artifact, counters


def gate(out_dir: str) -> List[str]:
    """``repro run wire``: write one ``parity_<mode>_<codec>.json`` per
    run and require binary == json, audits clean."""
    problems: List[str] = []
    for harden in (False, True):
        mode = "hardened" if harden else "default"
        artifacts = {}
        for codec in ("json", "binary"):
            artifact, counters = run_parity(codec, harden)
            artifacts[codec] = artifact
            write_json(artifact, out_dir, f"parity_{mode}_{codec}.json")
            outcomes = artifact["outcomes"]
            print(
                f"{mode:9s} codec={codec:7s}"
                f" ok={sum(1 for o in outcomes if o and o['ok'])}/{len(outcomes)}"
                f" sealed={counters['batch_envelopes_sealed']}"
                f" opened={counters['batch_envelopes_opened']}"
                f" observations={counters['observations']}"
            )
            for verdict in artifact["audit"].values():
                problems.extend(f"{mode}/{codec}: audit finding: {finding}" for finding in verdict)
            if not all(o and o["ok"] for o in outcomes):
                problems.append(f"{mode}/{codec}: not every request completed ok")
            if codec == "binary":
                if counters["batch_envelopes_sealed"] == 0:
                    problems.append(f"{mode}/binary: batch envelope path never exercised")
                if counters["batch_envelopes_opened"] != counters["batch_envelopes_sealed"]:
                    problems.append(f"{mode}/binary: sealed/opened counter mismatch")
        if artifacts["binary"] != artifacts["json"]:
            problems.append(f"{mode}: semantic artifact under binary differs from the json wire")
    return problems
