"""Assembly of the sharded proxy fleet.

:class:`ShardedPProxService` extends :class:`PProxService` with a
:class:`~repro.fleet.ring.ShardDirectory`: instead of one UA pool and
one IA pool, the fleet runs N shards, each a failure-domain-isolated
UA/IA pair group with its own balancers.  Clients route per attempt
via :meth:`entry_for` (nonce-keyed, see ``repro.fleet.ring``); every
instance also joins the inherited global lists and balancers so the
fault supervisor, telemetry instruments and legacy ``entry()`` callers
keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.crypto.keys import KeyFactory
from repro.fleet.placement import domain_node
from repro.fleet.ring import Shard, ShardDirectory
from repro.proxy.config import PProxConfig
from repro.proxy.layers import ItemAnonymizer, ProxyRuntime, UserAnonymizer
from repro.proxy.service import (
    IA_CODE_IDENTITY,
    UA_CODE_IDENTITY,
    PProxService,
    _cached_layer_keys,
)
from repro.rest.messages import Request
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import KeyProvisioner
from repro.simnet.loadbalancer import LoadBalancer, make_policy

__all__ = [
    "ShardedPProxService",
    "build_fleet",
]


@dataclass
class ShardedPProxService(PProxService):
    """A PProx service whose instances are grouped into ring shards."""

    directory: ShardDirectory = field(default_factory=ShardDirectory)
    #: UA (= IA) instances provisioned per shard — the paper's I.
    instances_per_shard: int = 1
    #: Called after a shard is fully provisioned (drills chain flush
    #: hooks onto shards created mid-run through this).
    on_shard_added: Optional[Callable[[Shard], None]] = None
    _shard_seq: int = 0

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
        for index in range(self.instances_per_shard):
            enclave = Enclave(
                name=f"ia-enclave-{shard_id}-{index}",
                measurement=EnclaveMeasurement.of_code(IA_CODE_IDENTITY),
                host_node=domain_node(domain, "IA", index),
            )
            self.provisioner.provision("IA", enclave)
            instance = ItemAnonymizer(
                name=f"pprox-ia-{shard_id}-{index}",
                runtime=self.runtime,
                enclave=enclave,
                lrs_picker=self.lrs_picker,
            )
            shard.ia_instances.append(instance)
            shard.ia_balancer.add(instance)
            self.ia_instances.append(instance)
            self.ia_balancer.add(instance)
            self.runtime.network.register_role(instance.address, "ia")
        for index in range(self.instances_per_shard):
            enclave = Enclave(
                name=f"ua-enclave-{shard_id}-{index}",
                measurement=EnclaveMeasurement.of_code(UA_CODE_IDENTITY),
                host_node=domain_node(domain, "UA", index),
            )
            self.provisioner.provision("UA", enclave)
            instance = UserAnonymizer(
                name=f"pprox-ua-{shard_id}-{index}",
                runtime=self.runtime,
                enclave=enclave,
                ia_balancer=shard.ia_balancer,
            )
            shard.ua_instances.append(instance)
            shard.ua_balancer.add(instance)
            self.ua_instances.append(instance)
            self.ua_balancer.add(instance)
            self.runtime.network.register_role(instance.address, "ua")
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

    def restart_instance(
        self, instance: Union[UserAnonymizer, ItemAnonymizer]
    ) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Restart preserving failure-domain placement.

        The stock restart path names the fresh enclave's host after the
        instance; a fleet restart must keep the node inside the shard's
        failure domain or the placement audit would flag it.
        """
        shard = self.shard_of(instance)
        if shard is None:
            return super().restart_instance(instance)
        if instance in shard.ua_instances:
            layer, identity = "UA", UA_CODE_IDENTITY
        else:
            layer, identity = "IA", IA_CODE_IDENTITY
        next_generation = instance.generation + 1
        enclave = Enclave(
            name=f"{instance.name}-enclave-g{next_generation}",
            measurement=EnclaveMeasurement.of_code(identity),
            host_node=f"node-{shard.domain}-{layer.lower()}-g{next_generation}",
        )
        self.provisioner.provision(layer, enclave)
        instance.restart(enclave)
        self.restarts += 1
        return instance


def build_fleet(
    ctx,
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    *,
    shards: int = 2,
    instances_per_shard: Optional[int] = None,
    rsa_bits: int = 1024,
    overload=None,
    vnodes: int = 64,
) -> ShardedPProxService:
    """Deploy a sharded fleet on a :class:`repro.context.SimContext`.

    ``config.ua_instances`` / ``ia_instances`` are reinterpreted as the
    per-shard instance count I (override with *instances_per_shard*);
    the fleet starts with *shards* live shards, each in its own
    failure domain.
    """
    if shards < 1:
        raise ValueError("a fleet needs at least one shard")
    per_shard = instances_per_shard if instances_per_shard is not None else config.ua_instances
    if per_shard < 1:
        raise ValueError("each shard needs at least one instance per layer")
    rng = ctx.rng
    provider = ctx.resolved_provider()

    factory = KeyFactory(
        rsa_bits=rsa_bits,
        rng_int=rng.int_fn("keygen"),
        rng_bytes=rng.bytes_fn("keygen-bytes"),
    )
    ua_keys = _cached_layer_keys(factory, rng.seed, rsa_bits, "UA")
    ia_keys = _cached_layer_keys(factory, rng.seed, rsa_bits, "IA")

    attestation = AttestationService(rng_bytes=rng.bytes_fn("attestation"))
    provisioner = KeyProvisioner(
        attestation=attestation,
        expected_measurements={
            "UA": EnclaveMeasurement.of_code(UA_CODE_IDENTITY),
            "IA": EnclaveMeasurement.of_code(IA_CODE_IDENTITY),
        },
        layer_keys={"UA": ua_keys, "IA": ia_keys},
        rng_bytes=rng.bytes_fn("provisioning"),
    )
    runtime = ProxyRuntime(
        loop=ctx.loop,
        network=ctx.network,
        rng=rng.stream("proxy"),
        provider=provider,
        config=config,
        costs=ctx.costs,
        telemetry=ctx.telemetry,
        overload=overload,
        codec=ctx.codec,
        ia_public=lambda: provisioner.layer_keys["IA"].public_material,
    )
    fleet = ShardedPProxService(
        runtime=runtime,
        provisioner=provisioner,
        attestation=attestation,
        ua_balancer=LoadBalancer(
            name="client->ua", policy=make_policy(config.balancing, rng.stream("lb-ua"))
        ),
        ia_balancer=LoadBalancer(
            name="ua->ia", policy=make_policy(config.balancing, rng.stream("lb-ia"))
        ),
        lrs_picker=lrs_picker,
        directory=ShardDirectory(vnodes=vnodes),
        instances_per_shard=per_shard,
    )
    for _ in range(shards):
        fleet.add_shard()
    return fleet
