"""The nginx stub LRS used by the micro-benchmarks (paper §7.1).

"When testing PProx in isolation from Harness, we use a stub service
with the nginx high-performance HTTP server to serve a static payload
of the same size as Harness recommendations lists."  The stub replies
to every ``get`` with the same 20 static item identifiers, and to
every ``post`` with an empty 200.  "Direct requests from the
injector(s) to the stub have a median latency of 1 to 2 ms and scale
well over 1,000 RPS" — the service-time model reflects that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

from repro.rest.messages import Request, Response, Verb
from repro.simnet.clock import EventLoop
from repro.simnet.node import SimNode

__all__ = ["StubLrs", "STATIC_ITEMS", "make_pseudonymous_payload"]

#: The stub's constant payload (same cardinality as a padded Harness
#: recommendation list).
STATIC_ITEMS: List[str] = [f"static-item-{index:02d}" for index in range(20)]

#: Median service time of one request; sigma 0.35 around it.
MEDIAN_SERVICE_SECONDS = 0.0006
#: The mu parameter of a lognormal with that median.
_MU = math.log(MEDIAN_SERVICE_SECONDS)


@dataclass
class StubLrs:
    """nginx-like static server on a single (never saturated) node."""

    loop: EventLoop
    rng: random.Random
    #: nginx on a dedicated NUC easily exceeds 1k RPS; model it as an
    #: 8-way worker pool with sub-millisecond service times.
    node: SimNode = None  # type: ignore[assignment]
    address: str = "lrs-stub"
    requests_served: int = 0
    #: The static payload.  When the proxy in front pseudonymizes
    #: items, this must hold pseudonymous identifiers (as a payload
    #: captured from a live Harness response would); see
    #: :func:`make_pseudonymous_payload`.
    items: List[str] = field(default_factory=lambda: list(STATIC_ITEMS))

    def __post_init__(self) -> None:
        if self.node is None:
            self.node = SimNode(name=self.address, loop=self.loop, cores=8)

    def handle(self, request: Request, reply: Callable[[Response], None]) -> None:
        """Serve *request* after a sampled sub-millisecond service time."""
        service_time = self.rng.lognormvariate(_MU, 0.35)
        self.requests_served += 1

        def finish() -> None:
            if request.verb == Verb.GET:
                reply(Response(status=200, fields={"items": list(self.items)},
                               request_id=request.request_id))
            else:
                reply(Response(status=200, fields={}, request_id=request.request_id))

        self.node.submit(service_time, finish)

def make_pseudonymous_payload(provider, symmetric_key: bytes) -> List[str]:
    """Pseudonymize :data:`STATIC_ITEMS` under the IA layer's key.

    The paper's stub serves "a static payload of the same size as
    Harness recommendations lists"; with item pseudonymization active
    that payload consists of pseudonymous identifiers, which is what
    the IA layer expects to de-pseudonymize on the response path.
    """
    from repro.crypto.envelope import EnvelopeCodec, encode_identifier

    return [
        EnvelopeCodec.wire_text(
            provider.pseudonymize(symmetric_key, encode_identifier(item))
        )
        for item in STATIC_ITEMS
    ]
