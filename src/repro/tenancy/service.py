"""Shared-proxy multi-tenant deployment.

Builds one pair of proxy layers whose instances dispatch key material
and LRS routing on the request's ``tenant`` label.  Shuffle buffers
are shared across tenants — the whole point: aggregated traffic fills
batches faster, restoring the anonymity-set guarantees for low-traffic
applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.crypto.keys import LayerKeys
from repro.crypto.provider import CryptoProvider, SimCryptoProvider
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.proxy.layers import ItemAnonymizer, ProxyRuntime, UserAnonymizer
from repro.proxy.service import IA_CODE_IDENTITY, UA_CODE_IDENTITY, PProxService
from repro.rest.codec import WireCodec, resolve_codec
from repro.rest.messages import Request
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LoadBalancer, make_policy
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.tenancy.directory import TenantDirectory, tenant_slot

__all__ = ["TenantUserAnonymizer", "TenantItemAnonymizer", "build_multi_tenant_pprox"]


@dataclass
class TenantUserAnonymizer(UserAnonymizer):
    """UA instance dispatching key material by tenant."""

    directory: Optional[TenantDirectory] = None

    def _keys_for(self, tenant: str) -> LayerKeys:
        from repro.sgx.provisioning import UA_SECRET_K, UA_SECRET_SK

        return LayerKeys(
            private_key=self.enclave.secret(tenant_slot(UA_SECRET_SK, tenant)),
            symmetric_key=self.enclave.secret(tenant_slot(UA_SECRET_K, tenant)),
        )


@dataclass
class TenantItemAnonymizer(ItemAnonymizer):
    """IA instance dispatching keys and LRS routing by tenant."""

    directory: Optional[TenantDirectory] = None

    def _keys_for(self, tenant: str) -> LayerKeys:
        from repro.sgx.provisioning import IA_SECRET_K, IA_SECRET_SK

        return LayerKeys(
            private_key=self.enclave.secret(tenant_slot(IA_SECRET_SK, tenant)),
            symmetric_key=self.enclave.secret(tenant_slot(IA_SECRET_K, tenant)),
        )

    def _pick_backend(self, request: Request):
        tenant = request.fields.get("tenant", "default")
        return self.directory.record(tenant).lrs_picker()


def build_multi_tenant_pprox(
    loop: EventLoop,
    network: Network,
    rng: RngRegistry,
    config: PProxConfig,
    directory: TenantDirectory,
    provider: Optional[CryptoProvider] = None,
    costs: ProxyCostModel = DEFAULT_COSTS,
    codec: Union[str, WireCodec] = "json",
) -> PProxService:
    """Deploy shared proxy layers serving every registered tenant.

    The enclaves are attested once, then each tenant's application
    provisions its own keys into them (modelled by
    :meth:`TenantDirectory.provision_layer`).  *codec* selects the
    wire format (``"json"`` / ``"binary"`` or a codec instance), as for
    single-tenant stacks; batch envelopes stay off because there is no
    shared IA key to seal them under — each tenant holds its own.
    """
    if provider is None:
        provider = SimCryptoProvider(rng_bytes=rng.bytes_fn("provider"))

    attestation = AttestationService(rng_bytes=rng.bytes_fn("attestation"))
    runtime = ProxyRuntime(
        loop=loop,
        network=network,
        rng=rng.stream("proxy"),
        provider=provider,
        config=config,
        costs=costs,
        codec=resolve_codec(codec),
    )
    ua_balancer = LoadBalancer(
        name="client->ua", policy=make_policy(config.balancing, rng.stream("lb-ua"))
    )
    ia_balancer = LoadBalancer(
        name="ua->ia", policy=make_policy(config.balancing, rng.stream("lb-ia"))
    )

    ia_instances = []
    for index in range(config.ia_instances):
        enclave = Enclave(
            name=f"mt-ia-enclave-{index}",
            measurement=EnclaveMeasurement.of_code(IA_CODE_IDENTITY),
            host_node=f"node-ia-{index}",
        )
        enclave.attested = True  # attested by every tenant before provisioning
        directory.provision_layer("IA", enclave)
        instance = TenantItemAnonymizer(
            name=f"pprox-ia-{index}",
            runtime=runtime,
            enclave=enclave,
            lrs_picker=lambda: None,  # routing is per-tenant
            directory=directory,
        )
        ia_instances.append(instance)
        ia_balancer.add(instance)

    ua_instances = []
    for index in range(config.ua_instances):
        enclave = Enclave(
            name=f"mt-ua-enclave-{index}",
            measurement=EnclaveMeasurement.of_code(UA_CODE_IDENTITY),
            host_node=f"node-ua-{index}",
        )
        enclave.attested = True
        directory.provision_layer("UA", enclave)
        instance = TenantUserAnonymizer(
            name=f"pprox-ua-{index}",
            runtime=runtime,
            enclave=enclave,
            ia_balancer=ia_balancer,
            directory=directory,
        )
        ua_instances.append(instance)
        ua_balancer.add(instance)

    # Reuse PProxService for entry-point selection and enclave listing;
    # the provisioner field is unused in multi-tenant mode (each tenant
    # holds its own keys in the directory).
    service = PProxService(
        runtime=runtime,
        provisioner=None,  # type: ignore[arg-type]
        attestation=attestation,
        ua_instances=ua_instances,
        ia_instances=ia_instances,
        ua_balancer=ua_balancer,
        ia_balancer=ia_balancer,
        lrs_picker=lambda: None,
    )
    return service
