"""Assembly of the sharded proxy fleet.

:class:`ShardedPProxService` extends :class:`PProxService` with a
:class:`~repro.fleet.ring.ShardDirectory`: instead of one UA pool and
one IA pool, the fleet runs N shards, each a failure-domain-isolated
UA/IA pair group with its own balancers.  Clients route per attempt
via :meth:`entry_for` (nonce-keyed, see ``repro.fleet.ring``); every
instance also joins the inherited global lists and balancers so the
fault supervisor, telemetry instruments and legacy ``entry()`` callers
keep working unchanged.  Shard instances are stood up and restarted
by the inherited :class:`PProxService` paths; the fleet only says where
(the shard's pools, its failure domain's nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.fleet.placement import domain_node
from repro.fleet.ring import Shard, ShardDirectory
from repro.proxy.config import PProxConfig
from repro.proxy.layers import ItemAnonymizer, UserAnonymizer
from repro.proxy.service import PProxService, assemble
from repro.rest.messages import Request
from repro.simnet.loadbalancer import LoadBalancer, make_policy

__all__ = [
    "ShardedPProxService",
    "build_fleet",
]


@dataclass
class ShardedPProxService(PProxService):
    """A PProx service whose instances are grouped into ring shards."""

    directory: ShardDirectory = field(default_factory=ShardDirectory)
    #: Called after a shard is fully provisioned (drills chain flush
    #: hooks onto shards created mid-run through this).
    on_shard_added: Optional[Callable[[Shard], None]] = None
    _shard_seq: int = 0

    @property
    def instances_per_shard(self) -> int:
        """UA (= IA) instances provisioned per shard — the paper's I
        (``config.ua_instances``, reinterpreted per shard)."""
        return self.config.ua_instances

    @property
    def shards(self) -> Dict[str, Shard]:
        """Live view of the directory's shard table."""
        return self.directory.shards

    def entry_for(self, request: Request) -> UserAnonymizer:
        """Pick the UA serving *request*, routed by its nonce.

        The ring key is ``request.request_id`` — the per-attempt
        counter nonce — never anything user-derived.
        """
        shard = self.directory.route(request.request_id)
        return shard.ua_balancer.pick()

    def shard_of(
        self, instance: Union[UserAnonymizer, ItemAnonymizer]
    ) -> Optional[Shard]:
        """The shard owning *instance* (None for non-fleet instances)."""
        for shard in self.directory.shards.values():
            if instance in shard.ua_instances or instance in shard.ia_instances:
                return shard
        return None

    # -- shard lifecycle (driven by the FleetSupervisor) ----------------

    def add_shard(
        self, *, domain: Optional[str] = None, activate: bool = True
    ) -> Shard:
        """Provision one full shard: I IA + I UA instances, own
        balancers, own failure domain.

        Keys and attestation complete for every enclave *before* the
        shard can be activated on the ring — the handoff barrier the
        supervisor relies on during splits.  With ``activate=False``
        the shard is registered but takes no traffic until
        :meth:`ShardDirectory.activate` flips the ring.
        """
        shard_id = f"s{self._shard_seq}"
        self._shard_seq += 1
        if domain is None:
            domain = f"fd-{shard_id}"
        rng = self.runtime.rng
        shard = Shard(
            shard_id=shard_id,
            domain=domain,
            ua_balancer=LoadBalancer(
                name=f"client->ua[{shard_id}]",
                policy=make_policy(self.config.balancing, rng),
            ),
            ia_balancer=LoadBalancer(
                name=f"ua->ia[{shard_id}]",
                policy=make_policy(self.config.balancing, rng),
            ),
            created_at=self.runtime.loop.now,
        )
        for layer in ("IA", "UA"):
            for index in range(self.instances_per_shard):
                self._spawn(
                    layer, f"{shard_id}-{index}", domain_node(domain, layer, index), (shard, self)
                )
        self.directory.register(shard)
        if activate:
            shard.set_state("live")
            self.directory.activate(shard_id)
        if self.on_shard_added is not None:
            self.on_shard_added(shard)
        return shard

    def remove_shard(self, shard: Shard) -> None:
        """Retire a drained shard: pull its instances out of service.

        The caller (supervisor) must have deactivated the shard on the
        ring and drained its in-flight batches first.
        """
        if shard.shard_id in self.directory.ring:
            raise ValueError(
                f"shard {shard.shard_id} is still on the ring; deactivate first"
            )
        for instance in shard.ua_instances:
            if instance in self.ua_balancer.backends:
                self.ua_balancer.remove(instance)
            if instance in self.ua_instances:
                self.ua_instances.remove(instance)
        for instance in shard.ia_instances:
            if instance in self.ia_balancer.backends:
                self.ia_balancer.remove(instance)
            if instance in self.ia_instances:
                self.ia_instances.remove(instance)
        shard.set_state("retired")

    # -- failure recovery ----------------------------------------------

    def _placement(self, instance: Union[UserAnonymizer, ItemAnonymizer]) -> Tuple[str, str]:
        """A fleet restart keeps the fresh enclave's node inside the
        shard's failure domain, or the placement audit would flag it."""
        shard = self.shard_of(instance)
        if shard is None:
            return super()._placement(instance)
        layer = "UA" if instance in shard.ua_instances else "IA"
        return layer, f"node-{shard.domain}-{layer.lower()}"


def build_fleet(
    ctx,
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    *,
    shards: int = 2,
    overload=None,
    vnodes: int = 64,
) -> ShardedPProxService:
    """Deploy a sharded fleet on a :class:`repro.context.SimContext`.

    ``config.ua_instances`` is reinterpreted as the per-shard instance
    count I of both layers; the fleet starts with *shards* live shards,
    each in its own failure domain.
    """
    if shards < 1:
        raise ValueError("a fleet needs at least one shard")
    fleet = assemble(
        ShardedPProxService, ctx, config, lrs_picker,
        overload=overload, directory=ShardDirectory(vnodes=vnodes),
    )
    for _ in range(shards):
        fleet.add_shard()
    return fleet
