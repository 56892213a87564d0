"""Extra reproduction artefacts: latency breakdown, post-vs-get,
recommendation quality.

* Latency breakdown by pipeline stage at 50 vs 250 RPS, per request
  from the wire's send timestamps (the operator-side probe of
  ``tests/oracles/wire_breakdown.py``) — shows the shuffle buffers
  dominating at thin traffic and amortizing at load, the mechanism
  behind Figure 7.
* Footnote 9: "the costs of post requests ... systematically follow
  the same trends as for get requests, with only marginally lower
  latencies."
* Recommendation quality of the CCO engine vs baselines — the paper
  treats quality as orthogonal; this table documents that the LRS we
  built is a real recommender, and that pseudonymization does not
  change its metrics.
"""

from __future__ import annotations

from conftest import SEED

from repro.cluster.deployments import MICRO_CONFIGS
from repro.context import Deployment, SimContext
from repro.experiments.rig import pseudonymise_stub, stub_lrs
from repro.experiments.runner import run_micro
from repro.lrs.baselines import ItemKnnRecommender, PopularityRecommender
from repro.lrs.cco import CcoTrainer
from repro.lrs.evaluation import evaluate_recommender, leave_latest_out_split
from repro.workload.injector import Injector
from repro.workload.movielens import SyntheticMovieLens
from tests.oracles.wire_breakdown import STAGES, BreakdownProbe

M6 = MICRO_CONFIGS["m6"]


def _breakdown_at(rps: float, duration: float = 15.0):
    """Per-stage medians of every request the wire saw complete."""
    ctx = SimContext.fresh(SEED)
    probe = BreakdownProbe()
    probe.attach(ctx.network)
    stub = stub_lrs(ctx)
    deployment = Deployment.build(ctx=ctx, config=M6.pprox_config(), lrs_picker=lambda: stub)
    pseudonymise_stub(stub, deployment)
    client = deployment.client()
    injector = Injector(ctx.loop, ctx.rng.stream("inj"))
    injector.inject(rps, duration, lambda cb: client.get("user", on_complete=cb))
    ctx.loop.run()
    return probe.aggregate()


def test_latency_breakdown(benchmark):
    def run():
        return {rps: _breakdown_at(rps) for rps in (50, 250)}

    breakdowns = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("== latency breakdown by stage, m6 (S=10), medians in ms ==")
    header = f"{'rps':>5s} " + " ".join(f"{stage:>12s}" for stage in STAGES)
    print(header)
    for rps, stages in breakdowns.items():
        print(f"{rps:5.0f} " + " ".join(f"{stages[s] * 1000:12.2f}" for s in STAGES))

    # Shuffle stages dominate at 50 RPS...
    thin = breakdowns[50]
    shuffle_share = (thin["ua_inbound"] + thin["ia_outbound"]) / sum(thin.values())
    assert shuffle_share > 0.7
    # ...and shrink substantially at 250 RPS.
    loaded = breakdowns[250]
    assert loaded["ua_inbound"] < thin["ua_inbound"]
    assert loaded["ia_outbound"] < thin["ia_outbound"]


def test_footnote9_posts_marginally_cheaper(benchmark):
    def run():
        gets = run_micro(M6, 150, seed=SEED, runs=1, duration=15.0, trim=4.0,
                         verb="get")
        posts = run_micro(M6, 150, seed=SEED, runs=1, duration=15.0, trim=4.0,
                          verb="post")
        return gets, posts

    gets, posts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("== footnote 9: post vs get (m6, 150 RPS) ==")
    print(f"get  median={gets.summary().median * 1000:6.1f} ms")
    print(f"post median={posts.summary().median * 1000:6.1f} ms")
    # Same trend (same order of magnitude), posts marginally lower.
    assert posts.summary().median < gets.summary().median
    assert posts.summary().median > 0.3 * gets.summary().median


def test_recommendation_quality_table(benchmark):
    def run():
        trace = SyntheticMovieLens(seed=3, scale=0.02)
        train, test = leave_latest_out_split(trace.events, holdout=1, min_history=4)
        model = CcoTrainer(llr_threshold=0.0).train(train)
        results = {
            "cco (UR)": evaluate_recommender(
                lambda h, n: model.recommend(h, n=n), train, test, k=10
            )
        }
        knn = ItemKnnRecommender()
        knn.fit(train)
        results["item-knn"] = evaluate_recommender(
            lambda h, n: knn.recommend(h, n=n), train, test, k=10
        )
        pop = PopularityRecommender()
        pop.fit(train)
        results["popularity"] = evaluate_recommender(
            lambda h, n: pop.recommend(h, n=n), train, test, k=10
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("== recommendation quality (MovieLens-shaped, leave-latest-out) ==")
    for name, result in results.items():
        print(f"{name:12s} {result.row()}")
    assert results["cco (UR)"].ndcg_at_k > results["popularity"].ndcg_at_k
    assert results["cco (UR)"].recall_at_k > 0.25
