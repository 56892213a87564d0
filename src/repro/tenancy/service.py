"""Shared-proxy multi-tenant deployment.

Builds one pair of proxy layers whose instances dispatch key material
and LRS routing on the request's ``tenant`` label.  Shuffle buffers
are shared across tenants — the whole point: aggregated traffic fills
batches faster, restoring the anonymity-set guarantees for low-traffic
applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.crypto.keys import LayerKeys
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.proxy.layers import ItemAnonymizer, UserAnonymizer
from repro.proxy.service import PProxService, assemble
from repro.rest.messages import Request
from repro.sgx.enclave import Enclave
from repro.tenancy.directory import TenantDirectory, tenant_slot

__all__ = [
    "TenantUserAnonymizer",
    "TenantItemAnonymizer",
    "MultiTenantPProxService",
    "build_multi_tenant_pprox",
]


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
        return self.directory.record(protocol.tenant_of(request)).lrs_picker()


@dataclass
class MultiTenantPProxService(PProxService):
    """A PProx service whose enclaves hold every tenant's keys.

    Scaling, restart and liveness are the inherited paths; only what is
    provisioned and which stages are built differ.  There is no shared
    provisioner (each tenant holds its own keys in *tenants*), hence no
    service-wide client material and no epoch view.
    """

    tenants: Optional[TenantDirectory] = None

    wire_epochs = None

    def _provision(self, layer: str, enclave: Enclave) -> None:
        enclave.attested = True  # attested by every tenant before provisioning
        self.tenants.provision_layer(layer, enclave)

    def _stage(self, layer: str, **wiring: Any) -> Union[UserAnonymizer, ItemAnonymizer]:
        stage = TenantUserAnonymizer if layer == "UA" else TenantItemAnonymizer
        return stage(runtime=self.runtime, directory=self.tenants, **wiring)


def build_multi_tenant_pprox(
    ctx, config: PProxConfig, directory: TenantDirectory
) -> MultiTenantPProxService:
    """Deploy shared proxy layers serving every registered tenant.

    The enclaves are attested once, then each tenant's application
    provisions its own keys into them (modelled by
    :meth:`TenantDirectory.provision_layer`).  The wire format is the
    context's, as for single-tenant stacks; batch envelopes stay off
    because there is no shared IA key to seal them under — each tenant
    holds its own.
    """
    return assemble(
        MultiTenantPProxService, ctx, config,
        lambda: None,  # routing is per-tenant
        shared_keys=False, tenants=directory,
    ).scale_to_config()
