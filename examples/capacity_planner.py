"""Capacity planning for a PProx deployment.

Operations-facing scenario: given an expected request rate, how many
proxy instances per layer are needed, and what latency should the SLO
budget expect?  Sweeps deployment sizes against rates (the Figure 8
grid), then demonstrates the elastic autoscaler following a traffic
ramp, as §5 prescribes ("the two proxy layers need to elastically
scale up and down based on observed request load").

Run:  python examples/capacity_planner.py
"""

from __future__ import annotations

from repro.cluster import ElasticScaler
from repro.cluster.deployments import MICRO_CONFIGS
from repro.context import Deployment, SimContext
from repro.experiments.runner import run_micro
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.proxy import PProxConfig
from repro.workload import Injector


def sweep_capacity() -> None:
    """Offline planning table: instances vs sustainable rate."""
    print("capacity sweep (stub LRS, S=10, 15 s windows)")
    print(f"{'pairs':>6s} {'rps':>6s} {'median ms':>10s} {'p99 ms':>8s} {'ok':>4s}")
    for name in ("m6", "m7", "m8", "m9"):
        config = MICRO_CONFIGS[name]
        for rps in (50, config.max_rps, config.max_rps + 150):
            result = run_micro(config, rps, seed=5, runs=1, duration=15.0, trim=4.0)
            summary = result.summary()
            print(
                f"{config.ua_instances:6d} {rps:6.0f}"
                f" {summary.median * 1000:10.1f} {summary.p99 * 1000:8.1f}"
                f" {'no' if result.saturated else 'yes':>4s}"
            )
    print("rule of thumb: ~250 RPS per UA+IA pair before the knee"
          " (the capacity solver plans at 250 RPS/pair with 0.8"
          " utilization headroom); avoid over-provisioning at low"
          " rates (shuffle delay).")
    print("for a solved-and-verified plan per (rps, p99 SLO) point —"
          " shards, instances, shuffle size, clean + chaos legs —"
          " run: python -m repro run capacity\n")


def autoscaler_demo() -> None:
    """Live elasticity: the scaler follows a traffic ramp."""
    print("elastic autoscaler following a traffic ramp")
    ctx = SimContext.fresh(6)
    loop, rng = ctx.loop, ctx.rng
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(shuffle_size=10, shuffle_timeout=0.25),
        lrs_picker=lambda: stub,
    )
    service = deployment.service
    stub.items = make_pseudonymous_payload(
        ctx.provider, service.provisioner.layer_keys["IA"].symmetric_key
    )
    client = deployment.client()
    scaler = ElasticScaler(loop=loop, service=service, interval=5.0,
                           low_rps=60.0, high_rps=220.0, max_instances=4)
    scaler.start()

    injector = Injector(loop, rng.stream("injector"))
    ramp = [(0, 100), (20, 400), (40, 700), (60, 250), (80, 80)]
    for start, rate in ramp:
        injector.inject(rate, 20.0,
                        lambda cb: client.get("user", on_complete=cb),
                        start_at=float(start))
    loop.run_until(105.0)
    scaler.stop()
    loop.run()

    print(f"{'time':>6s} {'layer':>6s} {'action':>11s} {'instances':>10s} {'rps/inst':>9s}")
    for decision in scaler.decisions:
        print(f"{decision.time:6.0f} {decision.layer:>6s} {decision.action:>11s}"
              f" {decision.instances_after:10d}"
              f" {decision.observed_rps_per_instance:9.0f}")
    print(f"final deployment: UA={len(service.ua_instances)}"
          f" IA={len(service.ia_instances)}"
          f" (completed {injector.report.completed}/{injector.report.issued} calls)")


def main() -> None:
    sweep_capacity()
    autoscaler_demo()


if __name__ == "__main__":
    main()
