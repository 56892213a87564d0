"""Deployment context API: one bundle instead of six loose arguments.

Every experiment used to thread ``loop, network, rng, provider, costs,
telemetry`` through ``build_pprox`` and again through ``PProxClient``;
each new cross-cutting concern (telemetry yesterday, fault injection
today) widened every call site.  :class:`SimContext` bundles the
simulation substrate once, and :class:`Deployment` is the keyword-only
facade that assembles a service — and hands out clients, health
monitors and fault controllers — from it.

``build_pprox(ctx, config, lrs_picker)`` and ``PProxClient(ctx,
service)`` take the same context, for callers that want one piece
without the facade.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Union

from repro.client.library import PProxClient
from repro.crypto.provider import CryptoProvider, SimCryptoProvider
from repro.overload.policy import OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.proxy.service import PProxService, build_pprox
from repro.rest.codec import WireCodec, resolve_codec
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.telemetry.hub import Telemetry

__all__ = ["SimContext", "Deployment"]


@dataclass
class SimContext:
    """The simulation substrate a deployment is built on.

    Bundles the six values previously passed loose: the event loop,
    the network fabric, the seeded RNG registry, the crypto provider,
    the calibrated cost model, and the (optional) telemetry hub.
    """

    loop: EventLoop
    network: Network
    rng: RngRegistry
    provider: Optional[CryptoProvider] = None
    costs: ProxyCostModel = DEFAULT_COSTS
    telemetry: Optional[Telemetry] = None
    #: Wire codec for protected hops — the one place a deployment's
    #: wire is chosen.  Accepts a codec name (``"json"``/``"binary"``)
    #: or a :class:`repro.rest.codec.WireCodec`; always holds the
    #: resolved instance, shared by the service and every client (codec
    #: identity checks such as ``runtime.codec is client.codec`` hold).
    codec: Union[str, WireCodec] = "json"
    #: Per-context request-id counter (replaces the process-wide
    #: ``rest.messages`` counter, whose state leaked across runs and
    #: made same-seed artifacts depend on test ordering).
    _request_ids: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.codec = resolve_codec(self.codec)

    @classmethod
    def fresh(
        cls,
        seed: int,
        *,
        provider: Optional[CryptoProvider] = None,
        costs: ProxyCostModel = DEFAULT_COSTS,
        telemetry: Optional[Telemetry] = None,
        loop: Optional[EventLoop] = None,
        codec: Union[str, WireCodec] = "json",
    ) -> "SimContext":
        """A ready-to-use context: new loop, network and RNG registry.

        The network draws its latency jitter from the registry's
        ``net`` stream, exactly as every runner did by hand.  Pass
        *loop* to substitute a wrapper around the engine — a
        :class:`repro.obs.profiler.ProfiledLoop` — before the network
        binds to it.
        """
        if loop is None:
            loop = EventLoop()
        rng = RngRegistry(seed=seed)
        network = Network(loop=loop, rng=rng.stream("net"))
        return cls(
            loop=loop,
            network=network,
            rng=rng,
            provider=provider,
            costs=costs,
            telemetry=telemetry,
            codec=codec,
        )

    def with_provider(self, provider: CryptoProvider) -> "SimContext":
        """Copy of this context with *provider* installed."""
        return replace(self, provider=provider)

    def next_request_id(self) -> int:
        """Allocate a request id scoped to this context.

        Ids start at 1 for every fresh context, so same-seed runs
        produce identical id sequences regardless of what else ran in
        the process.
        """
        if self._request_ids is None:
            self._request_ids = itertools.count(1)
        return next(self._request_ids)

    def resolved_provider(self) -> CryptoProvider:
        """The context's provider, defaulting to a seeded sim provider.

        The default is memoized onto the context so the service and
        every client share one provider instance (the sim provider's
        token registry is shared state).
        """
        if self.provider is None:
            self.provider = SimCryptoProvider(rng_bytes=self.rng.bytes_fn("provider"))
        return self.provider


@dataclass
class Deployment:
    """A deployed PProx service plus the context it runs in."""

    ctx: SimContext
    service: PProxService
    config: PProxConfig

    @classmethod
    def build(
        cls,
        *,
        ctx: SimContext,
        config: PProxConfig,
        lrs_picker: Callable[[], object],
        overload: Optional["OverloadPolicy"] = None,
    ) -> "Deployment":
        """Assemble a service from *ctx* (keyword-only).

        Pass an :class:`repro.overload.OverloadPolicy` as *overload* to
        arm the overload-protection subsystem on every proxy instance.
        The wire format is the context's (``ctx.codec``).
        """
        service = build_pprox(ctx, config, lrs_picker, overload=overload)
        return cls(ctx=ctx, service=service, config=config)

    def client(
        self,
        *,
        rng: Optional[random.Random] = None,
        **client_options: Any,
    ) -> PProxClient:
        """A user-side library bound to this deployment.

        *client_options* pass through to :class:`PProxClient`
        (``request_timeout``, ``max_retries``, ``hedge_delay``,
        ``tenant``, ...).  The client's RNG (its retry backoff jitter)
        defaults to the registry's ``client`` stream.
        """
        return PProxClient(
            self.ctx,
            self.service,
            rng=rng if rng is not None else self.ctx.rng.stream("client"),
            **client_options,
        )

    def health_monitor(self, *, interval: float = 2.0):
        """A :class:`repro.cluster.health.HealthMonitor` for the service."""
        from repro.cluster.health import HealthMonitor

        return HealthMonitor(
            loop=self.ctx.loop,
            service=self.service,
            interval=interval,
            telemetry=self.ctx.telemetry,
        )
