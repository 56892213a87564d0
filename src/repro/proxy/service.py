"""Assembly of the complete PProx proxy service.

Builds the two proxy layers (key generation, enclave creation,
attestation, provisioning), wires them to each other and to the LRS
through load balancers, and exposes the operations a deployment
needs: entry-point selection for clients, horizontal scaling, and
breach response (key rotation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.crypto.keys import KeyFactory, LayerKeys
from repro.crypto.provider import CryptoProvider, SimCryptoProvider
from repro.overload.policy import OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.proxy.layers import ItemAnonymizer, ProxyRuntime, UserAnonymizer
from repro.proxy.protocol import ClientMaterial
from repro.rest.codec import WireCodec, resolve_codec
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import KeyProvisioner
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LoadBalancer, make_policy
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.telemetry.types import TelemetryLike

if TYPE_CHECKING:  # import cycle: repro.context assembles through this module
    from repro.context import SimContext

__all__ = [
    "PProxService",
    "build_pprox",
    "build_service",
    "UA_CODE_IDENTITY",
    "IA_CODE_IDENTITY",
]

#: Code identities measured into the enclaves of each layer.
UA_CODE_IDENTITY = "pprox-user-anonymizer-v1.0"
IA_CODE_IDENTITY = "pprox-item-anonymizer-v1.0"

# RSA key generation in pure Python is slow (~0.1 s per 1024-bit
# keypair, all of it Miller-Rabin ``pow``); cache deterministic
# keypairs across experiment configurations of a run.
_KEYPAIR_CACHE: Dict[Tuple[int, int, str], LayerKeys] = {}


def _cached_layer_keys(factory: KeyFactory, seed: int, bits: int, layer: str) -> LayerKeys:
    cache_key = (seed, bits, layer)
    keys = _KEYPAIR_CACHE.get(cache_key)
    if keys is None:
        keys = factory.layer_keys()
        _KEYPAIR_CACHE[cache_key] = keys
    return keys


@dataclass
class PProxService:
    """A deployed two-layer proxy service."""

    runtime: ProxyRuntime
    provisioner: KeyProvisioner
    attestation: AttestationService
    ua_balancer: LoadBalancer
    ia_balancer: LoadBalancer
    lrs_picker: Callable[[], object]
    ua_instances: List[UserAnonymizer] = field(default_factory=list)
    ia_instances: List[ItemAnonymizer] = field(default_factory=list)
    #: Instance restarts performed (failover bookkeeping).
    restarts: int = 0

    @property
    def config(self) -> PProxConfig:
        """The active configuration."""
        return self.runtime.config

    @property
    def client_material(self) -> ClientMaterial:
        """Public keys the user-side library embeds (§4.1)."""
        return ClientMaterial(
            ua=self.provisioner.layer_keys["UA"].public_material,
            ia=self.provisioner.layer_keys["IA"].public_material,
        )

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

    def layer_instances(
        self, layer: str
    ) -> Union[List[UserAnonymizer], List[ItemAnonymizer]]:
        """The instance list of *layer* (``"UA"`` or ``"IA"``)."""
        if layer == "UA":
            return self.ua_instances
        if layer == "IA":
            return self.ia_instances
        raise ValueError(f"unknown layer {layer!r}; expected 'UA' or 'IA'")

    def all_enclaves(self) -> List[Enclave]:
        """Every enclave of both layers (for the breach detector)."""
        return [inst.enclave for inst in self.ua_instances] + [
            inst.enclave for inst in self.ia_instances
        ]

    # -- horizontal scaling (§5) ---------------------------------------

    def scale_ua(self) -> UserAnonymizer:
        """Add one UA instance: new enclave, attest, provision, join LB."""
        index = len(self.ua_instances)
        enclave = Enclave(
            name=f"ua-enclave-{index}",
            measurement=EnclaveMeasurement.of_code(UA_CODE_IDENTITY),
            host_node=f"node-ua-{index}",
        )
        self.provisioner.provision("UA", enclave)
        instance = UserAnonymizer(
            name=f"pprox-ua-{index}",
            runtime=self.runtime,
            enclave=enclave,
            ia_balancer=self.ia_balancer,
        )
        self.ua_instances.append(instance)
        self.ua_balancer.add(instance)
        self.runtime.network.register_role(instance.address, "ua")
        return instance

    def scale_ia(self) -> ItemAnonymizer:
        """Add one IA instance: new enclave, attest, provision, join LB."""
        index = len(self.ia_instances)
        enclave = Enclave(
            name=f"ia-enclave-{index}",
            measurement=EnclaveMeasurement.of_code(IA_CODE_IDENTITY),
            host_node=f"node-ia-{index}",
        )
        self.provisioner.provision("IA", enclave)
        instance = ItemAnonymizer(
            name=f"pprox-ia-{index}",
            runtime=self.runtime,
            enclave=enclave,
            lrs_picker=self.lrs_picker,
        )
        self.ia_instances.append(instance)
        self.ia_balancer.add(instance)
        self.runtime.network.register_role(instance.address, "ia")
        return instance

    # -- failure recovery ----------------------------------------------

    def restart_instance(
        self, instance: Union[UserAnonymizer, ItemAnonymizer]
    ) -> Union[UserAnonymizer, ItemAnonymizer]:
        """Bring a crashed instance back into service.

        Models the Kubernetes restart of a failed enclave pod: a fresh
        enclave is created, measured, remotely attested and
        re-provisioned with the layer's keys via the *same*
        :class:`KeyProvisioner` flow as initial deployment — all
        *before* the instance flips alive again, so a health probe can
        never readmit an instance whose enclave has not completed
        attestation.  Readmission to the balancer is the health
        monitor's job (or the caller's, via ``readmit``).
        """
        if instance in self.ua_instances:
            layer, identity = "UA", UA_CODE_IDENTITY
        elif instance in self.ia_instances:
            layer, identity = "IA", IA_CODE_IDENTITY
        else:
            raise ValueError(f"instance {instance.name!r} is not part of this service")
        next_generation = instance.generation + 1
        enclave = Enclave(
            name=f"{instance.name}-enclave-g{next_generation}",
            measurement=EnclaveMeasurement.of_code(identity),
            host_node=f"node-{instance.name}-g{next_generation}",
        )
        self.provisioner.provision(layer, enclave)
        instance.restart(enclave)
        self.restarts += 1
        return instance

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


def build_service(
    *,
    loop: EventLoop,
    network: Network,
    rng: RngRegistry,
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    provider: Optional[CryptoProvider] = None,
    costs: ProxyCostModel = DEFAULT_COSTS,
    rsa_bits: int = 1024,
    telemetry: Optional[TelemetryLike] = None,
    overload: Optional[OverloadPolicy] = None,
    codec: Union[str, WireCodec] = "json",
) -> PProxService:
    """Deploy a PProx service according to *config* (keyword-only core).

    Performs the full bootstrap: layer key generation by the client
    application, enclave creation on dedicated nodes, attestation and
    provisioning, and load-balancer wiring.  *lrs_picker* returns the
    LRS backend (stub or Harness frontend) for each outgoing request.

    Prefer :meth:`repro.context.Deployment.build`, which bundles the
    simulation substrate into a :class:`repro.context.SimContext` and
    also hands out matching clients.
    """
    if provider is None:
        provider = SimCryptoProvider(rng_bytes=rng.bytes_fn("provider"))

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
        loop=loop,
        network=network,
        rng=rng.stream("proxy"),
        provider=provider,
        config=config,
        costs=costs,
        telemetry=telemetry,
        overload=overload,
        codec=resolve_codec(codec),
        # Kept callable so batch sealing tracks live IA key rotation.
        ia_public=lambda: provisioner.layer_keys["IA"].public_material,
    )
    service = PProxService(
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
    )
    for _ in range(config.ia_instances):
        service.scale_ia()
    for _ in range(config.ua_instances):
        service.scale_ua()
    return service


def build_pprox(
    ctx: "SimContext",
    config: PProxConfig,
    lrs_picker: Callable[[], object],
    *,
    rsa_bits: int = 1024,
    overload: Optional[OverloadPolicy] = None,
) -> PProxService:
    """Deploy a PProx service on *ctx*, a :class:`repro.context.SimContext`.

    The context carries the loop, network, RNG registry, crypto
    provider, cost model, telemetry hub and wire codec; see
    :func:`build_service` for the bootstrap.
    :meth:`repro.context.Deployment.build` does the same and also
    hands out matching clients.
    """
    return build_service(
        loop=ctx.loop,
        network=ctx.network,
        rng=ctx.rng,
        config=config,
        lrs_picker=lrs_picker,
        provider=ctx.provider,
        costs=ctx.costs,
        rsa_bits=rsa_bits,
        telemetry=ctx.telemetry,
        overload=overload,
        codec=ctx.codec,
    )
