"""Application-side HTTP redirection (§6.3's history-attack mitigation).

"If such attacks are a concern, a solution is to trade off latency for
privacy, using an HTTP redirection from the service using RaaS rather
than issuing queries directly from clients, thereby hiding their IP
addresses."

:class:`RedirectFrontend` is that relay: it terminates client
connections at the application's own frontend and re-issues the
(already encrypted) calls toward the UA layer from a single address.
The RaaS-side adversary then sees one source for *all* users — the
per-IP anonymity-set collection that powers the history attack has
nothing to anchor on.  The cost is one extra network hop plus the
relay's service time.

Wiring: wrap the deployed service in :class:`RedirectedService` and
hand that to the :class:`~repro.client.library.PProxClient`; every
call then enters through the relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.overload.shedding import uniform_reject
from repro.rest.codec import ship
from repro.rest.messages import Request, Response
from repro.simnet.loadbalancer import BalancerError
from repro.simnet.node import SimNode

__all__ = ["RedirectFrontend", "RedirectedService"]

#: Relay work per direction (header rewrite, connection handling).
RELAY_SECONDS = 0.0003


@dataclass
class RedirectFrontend:
    """The application's relay between its users and the UA layer."""

    #: The PProx deployment relayed to: its ``entry()`` picks the UA
    #: instance, its ``runtime`` supplies the loop, the network and the
    #: codec that frames the relay<->UA hop.
    service: Any
    address: str = "app-frontend"
    node: SimNode = None  # type: ignore[assignment]
    relayed: int = 0
    #: Calls answered with the uniform reject because no UA instance
    #: was routable (the client's retry rule decides what follows).
    no_upstream: int = 0

    def __post_init__(self) -> None:
        if self.node is None:
            self.node = SimNode(name=self.address, loop=self.service.runtime.loop, cores=4)
        self.service.runtime.network.register_role(self.address, "relay")

    def receive_request(self, request: Request, reply: Callable[[Response], None]) -> None:
        """Relay an encrypted request toward the UA layer.

        The outbound hop carries the frontend's address as its source,
        so the RaaS-side observer never sees the client's address.
        *reply* is invoked with the response after the return relay
        work; the caller owns the final client-facing hop.
        """

        network, codec = self.service.runtime.network, self.service.runtime.codec

        def forward() -> None:
            try:
                entry = self.service.entry()
            except BalancerError:
                self.no_upstream += 1
                reply(uniform_reject(request.request_id))
                return
            self.relayed += 1
            outbound = request.readdressed(self.address)

            def reply_from_ua(response: Response) -> None:
                self.node.submit(RELAY_SECONDS, lambda: reply(response))

            ship(
                network, codec, self.address, entry.address, outbound,
                lambda req: entry.receive_request(
                    req,
                    lambda resp: ship(
                        network, codec, entry.address, self.address, resp, reply_from_ua
                    ),
                ),
            )

        self.node.submit(RELAY_SECONDS, forward)


@dataclass
class RedirectedService:
    """Entry-point wrapper routing every client call via the relay.

    Exposes the surface :class:`~repro.client.library.PProxClient`
    uses — ``config``, ``client_material``, ``wire_epochs``,
    ``entry_for()`` — returning the relay (which is
    UA-instance-shaped: it has an ``address`` and ``receive_request``)
    as the entry point.
    """

    inner: object
    frontend: RedirectFrontend

    @property
    def config(self):
        """The underlying deployment's configuration."""
        return self.inner.config

    @property
    def client_material(self):
        """The underlying deployment's public key material."""
        return self.inner.client_material

    @property
    def wire_epochs(self):
        """The underlying deployment's epoch view: a relayed request
        carries the same fixed-width tag a direct one does."""
        return self.inner.wire_epochs

    def entry_for(self, request: Request) -> RedirectFrontend:
        """All client traffic enters through the application relay."""
        return self.frontend
