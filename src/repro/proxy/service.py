"""Assembly of the complete PProx proxy service.

The control plane's first two steps live here and nowhere else:
:func:`assemble` is the one bootstrap (layer key generation,
attestation service, provisioner, runtime, the two global balancers)
behind every builder, and :meth:`PProxService.scale` /
:meth:`PProxService.restart_instance` are the one way an enclave is
stood up — measured, attested and provisioned before anything can
route to it.  The service also exposes what a deployment needs on top:
entry-point selection for clients and breach response (key rotation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.crypto.keys import KeyFactory, LayerKeys
from repro.overload.policy import OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.proxy.layers import ItemAnonymizer, ProxyRuntime, UserAnonymizer
from repro.proxy.protocol import ClientMaterial
from repro.rest.messages import Request
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import KeyProvisioner
from repro.simnet.loadbalancer import LoadBalancer, make_policy

if TYPE_CHECKING:  # import cycle: repro.context assembles through this module
    from repro.context import SimContext

__all__ = [
    "PProxService",
    "assemble",
    "build_pprox",
    "layer_pool",
    "UA_CODE_IDENTITY",
    "IA_CODE_IDENTITY",
]

#: Code identities measured into the enclaves of each layer.
UA_CODE_IDENTITY = "pprox-user-anonymizer-v1.0"
IA_CODE_IDENTITY = "pprox-item-anonymizer-v1.0"
_CODE_IDENTITY = {"UA": UA_CODE_IDENTITY, "IA": IA_CODE_IDENTITY}

# RSA key generation is the costliest setup step (≈ 11 ms median per
# standard two-prime 1024-bit keypair over 40 draws on a 2-core host,
# CPython 3.11, nearly all of it Miller-Rabin powers in OpenSSL); cache
# deterministic keypairs across experiment configurations of a run.
_KEYPAIR_CACHE: Dict[Tuple[int, str], LayerKeys] = {}


def _cached_layer_keys(factory: KeyFactory, seed: int, layer: str) -> LayerKeys:
    cache_key = (seed, layer)
    keys = _KEYPAIR_CACHE.get(cache_key)
    if keys is None:
        keys = factory.layer_keys()
        _KEYPAIR_CACHE[cache_key] = keys
    return keys


@dataclass
class PProxService:
    """A deployed two-layer proxy service."""

    runtime: ProxyRuntime
    #: ``None`` on the shared multi-tenant proxy (tenants hold their own keys).
    provisioner: Optional[KeyProvisioner]
    attestation: AttestationService
    ua_balancer: LoadBalancer
    ia_balancer: LoadBalancer
    lrs_picker: Callable[[], object]
    ua_instances: List[UserAnonymizer] = field(default_factory=list)
    ia_instances: List[ItemAnonymizer] = field(default_factory=list)
    #: Instance restarts performed (failover bookkeeping).
    restarts: int = 0
    #: Called, in order, with each shard a fleet provisions after it is
    #: deployed (a single-pool service adds none): instruments and
    #: drills append here to hook shards born mid-run.
    shard_hooks: List[Callable[[Any], None]] = field(default_factory=list)
    #: The last :attr:`client_material` built, reused while both
    #: layers' public material is the same objects.
    _client_material: Optional[ClientMaterial] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def config(self) -> PProxConfig:
        """The active configuration."""
        return self.runtime.config

    @property
    def client_material(self) -> ClientMaterial:
        """Public keys the user-side library embeds (§4.1): read live on
        every client encode, so a rotation shows at once."""
        keys = self.provisioner.layer_keys
        ua, ia = keys["UA"].public_material, keys["IA"].public_material
        material = self._client_material
        if material is None or material.ua is not ua or material.ia is not ia:
            material = self._client_material = ClientMaterial(ua=ua, ia=ia)
        return material

    @property
    def wire_epochs(self) -> Optional[Dict[str, int]]:
        """Per-layer active epoch ids for client request stamping.

        ``None`` until the first online rotation: legacy deployments
        stamp nothing and stay byte-identical on the wire.
        """
        if not self.provisioner.epochs_enabled:
            return None
        return {
            "UA": self.provisioner.active_epoch("UA"),
            "IA": self.provisioner.active_epoch("IA"),
        }

    def entry(self) -> UserAnonymizer:
        """Pick the UA instance serving the next client request."""
        return self.ua_balancer.pick()

    def entry_for(self, request: Request) -> UserAnonymizer:
        """The first hop of *request*: one pool, so whichever UA the
        balancer picks (a sharded fleet routes on the request's nonce,
        a redirected service returns its relay)."""
        return self.entry()

    def layer_instances(
        self, layer: str
    ) -> Union[List[UserAnonymizer], List[ItemAnonymizer]]:
        """The instance list of *layer* (``"UA"`` or ``"IA"``)."""
        return layer_pool(self, layer)[0]

    def all_enclaves(self) -> List[Enclave]:
        """Every enclave of both layers (for the breach detector)."""
        return [inst.enclave for inst in self.ua_instances] + [
            inst.enclave for inst in self.ia_instances
        ]

    # -- standing up an enclave (§4.1, §5, §7) --------------------------

    def _enclave(self, layer: str, name: str, host_node: str) -> Enclave:
        """Create, measure, attest and provision one enclave of *layer*
        — in that order, and all before the caller can route to it."""
        enclave = Enclave(
            name=name,
            measurement=EnclaveMeasurement.of_code(_CODE_IDENTITY[layer]),
            host_node=host_node,
        )
        self._provision(layer, enclave)
        return enclave

    def _provision(self, layer: str, enclave: Enclave) -> None:
        """Attest *enclave* and install *layer*'s secrets (the tenant
        service installs every tenant's instead)."""
        self.provisioner.provision(layer, enclave)

    def _stage(self, layer: str, **wiring: Any) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Build the stage of *layer* (the tenant service builds its
        tenant-dispatching ones)."""
        stage = UserAnonymizer if layer == "UA" else ItemAnonymizer
        return stage(runtime=self.runtime, **wiring)

    def _spawn(
        self, layer: str, tag: str, host_node: str, pools: Sequence[Any]
    ) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Stand up instance *tag* of *layer* on *host_node* and join
        it to every pool it belongs to (the service itself; for a fleet
        the shard first — a UA forwards to its first pool's IAs)."""
        low = layer.lower()
        enclave = self._enclave(layer, f"{low}-enclave-{tag}", host_node)
        wiring: Dict[str, Any] = (
            {"ia_balancer": pools[0].ia_balancer}
            if layer == "UA"
            else {"lrs_picker": self.lrs_picker}
        )
        instance = self._stage(layer, name=f"pprox-{low}-{tag}", enclave=enclave, **wiring)
        for pool in pools:
            instances, balancer = layer_pool(pool, layer)
            instances.append(instance)
            balancer.add(instance)
        self.runtime.network.register_role(instance.address, low)
        return instance

    # -- horizontal scaling (§5) ---------------------------------------

    def scale(self, layer: str) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Add one *layer* instance: new enclave, attest, provision, join LB."""
        index = len(self.layer_instances(layer))
        return self._spawn(layer, str(index), f"node-{layer.lower()}-{index}", (self,))

    def scale_to_config(self) -> "PProxService":
        """Stand up the configured instance counts, IA layer first."""
        for _ in range(self.config.ia_instances):
            self.scale("IA")
        for _ in range(self.config.ua_instances):
            self.scale("UA")
        return self

    # -- failure recovery ----------------------------------------------

    def restart_instance(
        self, instance: Union[UserAnonymizer, ItemAnonymizer]
    ) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Bring a crashed instance back into service.

        Models the Kubernetes restart of a failed enclave pod: a fresh
        enclave is created, measured, remotely attested and
        re-provisioned with the layer's keys via the *same* flow as
        initial deployment — all *before* the instance flips alive
        again, so a health probe can never readmit an instance whose
        enclave has not completed attestation.  Readmission to the
        balancer is the health monitor's job (or the caller's, via
        ``readmit``).
        """
        layer, host = self._placement(instance)
        generation = instance.generation + 1
        instance.restart(
            self._enclave(
                layer, f"{instance.name}-enclave-g{generation}", f"{host}-g{generation}"
            )
        )
        self.restarts += 1
        return instance

    def _placement(self, instance: Union[UserAnonymizer, ItemAnonymizer]) -> Tuple[str, str]:
        """``(layer, host-node stem)`` a restarted *instance* lands on
        (a fleet keeps the node inside the shard's failure domain)."""
        for layer in ("UA", "IA"):
            if instance in self.layer_instances(layer):
                return layer, f"node-{instance.name}"
        raise ValueError(f"instance {instance.name!r} is not part of this service")

    # -- breach response (footnote 1) ----------------------------------

    def rotate_layer(self, layer: str, factory: KeyFactory) -> LayerKeys:
        """Generate fresh keys for *layer* and re-provision its enclaves.

        Returns the new key material (the user-side library must be
        updated with the new public half).
        """
        new_keys = factory.layer_keys()
        enclaves = [
            inst.enclave
            for inst in (self.ua_instances if layer == "UA" else self.ia_instances)
        ]
        self.provisioner.rotate_layer(layer, new_keys, enclaves)
        return new_keys

    # -- online rotation (epochs) --------------------------------------

    def announce_epoch(self, layer: str, new_keys: LayerKeys) -> Tuple[int, int]:
        """Open a dual-epoch window on *layer*'s alive enclaves.

        Dead instances are deliberately skipped — their enclaves are
        rebuilt from scratch at restart (which provisions the current
        generation), and the rotation coordinator's coverage pass heals
        any alive enclave that missed the flip.  Returns
        ``(old_epoch, new_epoch)``.
        """
        enclaves = [
            instance.enclave
            for instance in self.layer_instances(layer)
            if instance.alive
        ]
        return self.provisioner.announce_epoch(layer, new_keys, enclaves)

    def retire_epoch(self, layer: str) -> int:
        """Close *layer*'s window: wipe the previous-epoch secrets from
        every alive enclave.  Returns the retired epoch id."""
        enclaves = [
            instance.enclave
            for instance in self.layer_instances(layer)
            if instance.alive
        ]
        return self.provisioner.retire_epoch(layer, enclaves)

    def breach_response(self, layer: str, factory: KeyFactory, lrs_store=None) -> LayerKeys:
        """Full breach response (footnote 1, option 1).

        Rotates *layer*'s keys AND drops the LRS database content: the
        stored pseudonyms were produced under the retired keys and can
        no longer be resolved by the fresh enclaves (the paper's other
        options — offline re-encryption or proxy re-encryption — trade
        data retention for more machinery).
        """
        new_keys = self.rotate_layer(layer, factory)
        if lrs_store is not None:
            lrs_store.clear()
        return new_keys


def layer_pool(pool: Any, layer: str) -> Tuple[list, LoadBalancer]:
    """``(instances, balancer)`` of *layer* in *pool* — a service or a
    fleet shard, which name their two pools alike."""
    if layer == "UA":
        return pool.ua_instances, pool.ua_balancer
    if layer == "IA":
        return pool.ia_instances, pool.ia_balancer
    raise ValueError(f"unknown layer {layer!r}; expected 'UA' or 'IA'")


def assemble(
    service_cls: Type[PProxService],
    ctx: "SimContext",
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    *,
    overload: Optional[OverloadPolicy] = None,
    shared_keys: bool = True,
    **fields: Any,
) -> PProxService:
    """The bootstrap every builder shares: an empty *service_cls*.

    Generates the two layer keypairs (as the client application would)
    and the provisioner that will attest enclaves against the layers'
    code identities, then the runtime and the two global balancers, on
    *ctx*'s loop, network, RNG registry, provider, cost model,
    telemetry hub and wire codec.  *fields* are *service_cls*'s own.
    ``shared_keys=False`` is the shared multi-tenant proxy: each tenant
    brings its own keys, so there is no provisioner and no shared IA
    key to seal batch envelopes under.
    """
    rng = ctx.rng
    provider = ctx.resolved_provider()
    attestation = AttestationService(rng_bytes=rng.bytes_fn("attestation"))
    provisioner = ia_public = None
    if shared_keys:
        factory = KeyFactory(
            rng_int=rng.int_fn("keygen"),
            rng_bytes=rng.bytes_fn("keygen-bytes"),
        )
        provisioner = KeyProvisioner(
            attestation=attestation,
            expected_measurements={
                layer: EnclaveMeasurement.of_code(identity)
                for layer, identity in _CODE_IDENTITY.items()
            },
            layer_keys={
                layer: _cached_layer_keys(factory, rng.seed, layer) for layer in _CODE_IDENTITY
            },
            rng_bytes=rng.bytes_fn("provisioning"),
        )
        # Kept callable so batch sealing tracks live IA key rotation.
        ia_public = lambda: provisioner.layer_keys["IA"].public_material
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
        ia_public=ia_public,
    )
    return service_cls(
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
        **fields,
    )


def build_pprox(
    ctx: "SimContext",
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    *,
    overload: Optional[OverloadPolicy] = None,
) -> PProxService:
    """Deploy a PProx service on *ctx*, a :class:`repro.context.SimContext`.

    Performs the full bootstrap (:func:`assemble`), then enclave
    creation on dedicated nodes, attestation and provisioning for
    ``config``'s instance counts.  *lrs_picker* returns the LRS backend
    (stub or Harness frontend) for each outgoing request.
    :meth:`repro.context.Deployment.build` does the same and also
    hands out matching clients.
    """
    return assemble(PProxService, ctx, config, lrs_picker, overload=overload).scale_to_config()
