"""Simulated Harness deployment: scalable frontends + support nodes.

The macro-benchmarks deploy Harness with 3 to 12 frontend nodes plus 4
support nodes (3 Elasticsearch, 1 MongoDB + Spark); "the front-end
service is the main source of load for serving requests and these 4
support nodes are necessary and sufficient in all configurations"
(§8.2).  Each frontend is a 2-core NUC.

The functional side (what recommendations come back) is computed by
the shared :class:`repro.lrs.engine.HarnessEngine`; the performance
side charges calibrated service times on the frontend that handles
the request plus a small support-store lookup, reproducing the
saturation ladder of Figure 9: ~250 RPS of headroom per 3 frontends.
A get's answer comes from the engine, which serves a (history, n) it
already answered under the current model from memory (at most
``engine.ANSWER_MEMO_ENTRIES`` answers, emptied by a new model); its
service time is drawn from the calibrated distribution either way, so
a remembered answer saves host time and moves no simulated latency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

from repro.lrs.engine import HarnessEngine
from repro.rest.messages import Request, Response, Verb
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LoadBalancer, RandomPolicy
from repro.simnet.node import SimNode

__all__ = ["HarnessFrontend", "HarnessService", "frontend_seconds"]


#: Calibrated service times of the Harness deployment.  ``get``
#: requests perform "non-trivial reads to a shared database and complex
#: (pre-built) user models" (§8.2); posts are lighter (append to
#: MongoDB).  Medians and lognormal sigmas are per-request core time on
#: a 2-core frontend; with three frontends (6 cores) the deployment
#: sustains ~250 RPS before the queueing knee, matching Figure 9.
GET_MEDIAN_SECONDS = 0.016
GET_SIGMA = 0.45
POST_MEDIAN_SECONDS = 0.006
POST_SIGMA = 0.35
#: ES / MongoDB lookup charged on the support pool per request.
SUPPORT_SECONDS = 0.002


def frontend_seconds(verb: str, rng: random.Random) -> float:
    """Draw a frontend service time for a request of kind *verb*."""
    if verb == Verb.GET:
        return rng.lognormvariate(math.log(GET_MEDIAN_SECONDS), GET_SIGMA)
    return rng.lognormvariate(math.log(POST_MEDIAN_SECONDS), POST_SIGMA)


@dataclass
class HarnessFrontend:
    """One Harness frontend instance on its own 2-core node."""

    name: str
    loop: EventLoop
    rng: random.Random
    engine: HarnessEngine
    support: SimNode
    node: SimNode = None  # type: ignore[assignment]
    requests_served: int = 0

    def __post_init__(self) -> None:
        if self.node is None:
            self.node = SimNode(name=self.name, loop=self.loop, cores=2)

    @property
    def address(self) -> str:
        """Network address of this frontend."""
        return self.name

    def handle(self, request: Request, reply: Callable[[Response], None]) -> None:
        """Process *request*: frontend work, support lookup, reply."""
        self.requests_served += 1
        frontend_time = frontend_seconds(request.verb, self.rng)

        def after_frontend() -> None:
            self.support.submit(SUPPORT_SECONDS, lambda: finish())

        def finish() -> None:
            reply(self._execute(request))

        self.node.submit(frontend_time, after_frontend)

    def _execute(self, request: Request) -> Response:
        """The functional part: run the engine on the request fields."""
        if request.verb == Verb.POST:
            user = request.fields.get("user")
            item = request.fields.get("item")
            payload = request.fields.get("payload")
            # A payload is text or absent: a bytes field off the binary
            # wire is a memoryview that would keep its whole frame alive.
            if not isinstance(user, str) or not isinstance(item, str) or not (
                payload is None or isinstance(payload, str)
            ):
                return Response(status=400, fields={"error": "missing user/item"},
                                request_id=request.request_id)
            self.engine.post_event(user, item, payload)
            return Response(status=200, fields={}, request_id=request.request_id)
        user = request.fields.get("user")
        if not isinstance(user, str):
            return Response(status=400, fields={"error": "missing user"},
                            request_id=request.request_id)
        items = self.engine.get_recommendations(user)
        return Response(status=200, fields={"items": items}, request_id=request.request_id)


@dataclass
class HarnessService:
    """A Harness deployment: N frontends behind a balancer + support pool."""

    loop: EventLoop
    rng: random.Random
    frontend_count: int = 3
    engine: HarnessEngine = field(default_factory=HarnessEngine)
    name: str = "harness"
    frontends: List[HarnessFrontend] = field(default_factory=list)
    support: SimNode = None  # type: ignore[assignment]
    balancer: LoadBalancer = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.support is None:
            # 4 support nodes x 2 cores, pooled: 3 Elasticsearch + 1
            # MongoDB/Spark.  Pooling is fine because support work is
            # far from saturation in every paper configuration.
            self.support = SimNode(name=f"{self.name}-support", loop=self.loop, cores=8)
        if self.balancer is None:
            self.balancer = LoadBalancer(name=f"{self.name}-lb", policy=RandomPolicy(rng=self.rng))
        while len(self.frontends) < self.frontend_count:
            self.add_frontend()

    def add_frontend(self) -> HarnessFrontend:
        """Scale out by one frontend node."""
        frontend = HarnessFrontend(
            name=f"{self.name}-fe-{len(self.frontends)}",
            loop=self.loop,
            rng=self.rng,
            engine=self.engine,
            support=self.support,
        )
        self.frontends.append(frontend)
        self.balancer.add(frontend)
        return frontend

    def pick_frontend(self) -> HarnessFrontend:
        """Choose the frontend for the next request (kube-proxy style)."""
        return self.balancer.pick()

    def train(self) -> None:
        """Run the Spark-like batch training job on accumulated events."""
        self.engine.train()

