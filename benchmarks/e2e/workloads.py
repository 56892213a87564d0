"""The five workloads: deployment shape, request mix, and seeded inputs.

Request counts are stated for ``--seconds 20`` (one full invocation of
about three minutes on the 2-core reference box); a run scales every
count by ``seconds / 20``, so the same ``--seconds`` always does the
same work and the simulated metrics are a pure function of the seed.
Load is open-loop in *virtual* time at a fixed rate below the modelled
saturation point of each deployment.

``--seed`` generates the inputs only — who asks, for what, and the
arrival jitter.  The deployment's own randomness (RSA key generation,
nonces, modelled network and service-time jitter, shuffle order) comes
from :data:`DEPLOYMENT_SEED`: pure-Python key generation takes 1 to 6 s
depending on the seed, and a set-up metric that moves 5x with the
workload seed could not show a regression.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.proxy.config import PProxConfig
from repro.simnet.rng import RngRegistry
from repro.workload.movielens import PAPER_SLICE, SyntheticMovieLens

__all__ = ["Phase", "Workload", "Inputs", "WORKLOADS", "DEPLOYMENT_SEED", "generate_inputs"]

DEPLOYMENT_SEED = 7
#: ``--seconds`` at which the request counts below apply unscaled.
NOMINAL_SECONDS = 20.0
#: Users of the stub workloads (the paper's micro-benchmark population).
STUB_USERS = 500


@dataclass(frozen=True)
class Phase:
    """One open-loop injection phase."""

    verb: str
    #: Requests at ``--seconds 20``.
    requests: int
    #: Arrivals per virtual second.
    rate: float
    #: Equal virtual-time segments the phase is timed in (K).
    segments: int

    def scaled(self, seconds: float, fraction: float) -> int:
        """Requests at *seconds*, times *fraction* (the traced run uses
        a quarter); a multiple of the shuffle size, so the last batch
        of a phase is as full as the others."""
        wanted = self.requests * seconds / NOMINAL_SECONDS * fraction
        return max(10, int(round(wanted / 10.0)) * 10)


@dataclass(frozen=True)
class Workload:
    name: str
    codec: str
    config: PProxConfig
    phases: Tuple[Phase, ...]
    #: ``"stub"`` (nginx-like static payload) or ``"harness"`` (real CCO engine).
    lrs: str = "stub"
    #: Arm the telemetry + causal-tracing plane.
    observed: bool = False


_PASSTHROUGH = PProxConfig(encryption=False, sgx=False, shuffle_size=0)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="micro_get",
            codec="json",
            config=PProxConfig(shuffle_size=10),
            phases=(Phase("get", 4000, 100.0, 80),),
        ),
        Workload(
            name="micro_post",
            codec="json",
            config=PProxConfig(shuffle_size=10),
            phases=(Phase("post", 7000, 100.0, 80),),
        ),
        Workload(
            name="passthrough_get",
            codec="binary",
            config=_PASSTHROUGH,
            phases=(Phase("get", 120000, 1000.0, 80),),
        ),
        Workload(
            name="observed_get",
            codec="binary",
            config=_PASSTHROUGH,
            phases=(Phase("get", 30000, 1000.0, 80),),
            observed=True,
        ),
        Workload(
            name="macro_movielens",
            codec="binary",
            config=PProxConfig(shuffle_size=10, ua_instances=2, ia_instances=2),
            phases=(Phase("post", 2000, 200.0, 40), Phase("get", 2000, 200.0, 40)),
            lrs="harness",
        ),
    )
}


@dataclass
class Inputs:
    """What the program receives: one argument tuple per request."""

    #: Per phase: ``(user,)`` for gets, ``(user, item)`` for posts.
    phases: List[List[tuple]]
    #: ``macro_movielens`` only: feedback loaded before the timed window.
    warm_events: List[Tuple[str, str]] = field(default_factory=list)
    gen_seconds: float = 0.0


def generate_inputs(workload: Workload, seed: int, seconds: float, fraction: float) -> Inputs:
    """Generate *workload*'s inputs from *seed* (same seed, same inputs)."""
    started = time.perf_counter()
    counts = [phase.scaled(seconds, fraction) for phase in workload.phases]
    rng = RngRegistry(seed).stream("inputs")
    if workload.lrs == "harness":
        posts, gets = counts
        dataset = SyntheticMovieLens(seed=seed, scale=0.1)
        inputs = Inputs(
            phases=[
                list(dataset.events[-posts:]),
                [(user,) for user in dataset.query_users(gets, rng)],
            ],
            warm_events=list(dataset.events[:-posts]),
        )
    else:
        phase = workload.phases[0]
        if phase.verb == "get":
            users = [f"user-{index}" for index in range(STUB_USERS)]
            requests: List[tuple] = [(rng.choice(users),) for _ in range(counts[0])]
        else:
            # An id population larger than the provider's 4096-entry
            # pseudonym memo: the paper's dataset aggregates.
            requests = [
                (
                    f"user-{rng.randrange(PAPER_SLICE['users'])}",
                    f"movie-{rng.randrange(PAPER_SLICE['movies'])}",
                )
                for _ in range(counts[0])
            ]
        inputs = Inputs(phases=[requests])
    inputs.gen_seconds = time.perf_counter() - started
    return inputs
