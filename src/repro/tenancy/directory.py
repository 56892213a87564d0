"""Multi-tenant RaaS deployments (paper §6.3, "Assumption on traffic").

For low-traffic applications, shuffle buffers fill slowly and timer
flushes shrink the anonymity set.  The paper's proposed mitigation is
multi-tenancy: "use the same proxy layer for multiple applications,
thereby increasing the minimum traffic.  This comes, however, with
increased risks in case an enclave is broken, as secrets for multiple
applications could be stolen at once."

This package implements exactly that trade-off:

* one shared pair of proxy layers, whose enclaves are provisioned with
  *per-tenant* key material (every tenant's application generates and
  provisions its own keys after attesting the shared enclaves);
* requests carry a public ``tenant`` label (the application's
  identity is not a secret — the adversary sees which app a client
  talks to anyway) used to select keys and the tenant's own LRS;
* the blast-radius property the paper warns about is directly
  testable: breaking one shared enclave leaks *all* tenants' secrets
  of that layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.crypto.keys import KeyFactory, LayerKeys
from repro.proxy.protocol import ClientMaterial
from repro.sgx.enclave import Enclave

__all__ = ["TenantRecord", "TenantDirectory", "tenant_slot"]


def tenant_slot(base_slot: str, tenant: str) -> str:
    """Sealed-store slot name for a tenant's copy of a layer secret."""
    return f"{base_slot}@{tenant}"


@dataclass
class TenantRecord:
    """Everything registered for one application (tenant)."""

    name: str
    ua_keys: LayerKeys
    ia_keys: LayerKeys
    lrs_picker: Callable[[], object]

    @property
    def client_material(self) -> ClientMaterial:
        """The public keys this tenant's user-side library embeds."""
        return ClientMaterial(
            ua=self.ua_keys.public_material, ia=self.ia_keys.public_material
        )


@dataclass
class TenantDirectory:
    """Registry of tenants sharing one proxy deployment."""

    tenants: Dict[str, TenantRecord] = field(default_factory=dict)

    def register(self, record: TenantRecord) -> None:
        """Add a tenant (name must be unique)."""
        if record.name in self.tenants:
            raise ValueError(f"tenant {record.name!r} already registered")
        self.tenants[record.name] = record

    def record(self, tenant: str) -> TenantRecord:
        """Lookup; raises KeyError with a useful message."""
        try:
            return self.tenants[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    @staticmethod
    def make_tenant(
        name: str,
        factory: KeyFactory,
        lrs_picker: Callable[[], object],
    ) -> TenantRecord:
        """Generate fresh per-tenant key material."""
        return TenantRecord(
            name=name,
            ua_keys=factory.layer_keys(),
            ia_keys=factory.layer_keys(),
            lrs_picker=lrs_picker,
        )

    def provision_layer(self, layer: str, enclave: Enclave) -> None:
        """Install every tenant's secrets of *layer* into *enclave*.

        The enclave must already be attested (the normal provisioning
        flow); each tenant's application performs this step with its
        own keys in a real deployment.
        """
        from repro.sgx.provisioning import (
            IA_SECRET_K,
            IA_SECRET_SK,
            UA_SECRET_K,
            UA_SECRET_SK,
        )

        secrets = {}
        for record in self.tenants.values():
            if layer == "UA":
                secrets[tenant_slot(UA_SECRET_SK, record.name)] = record.ua_keys.private_key
                secrets[tenant_slot(UA_SECRET_K, record.name)] = record.ua_keys.symmetric_key
            elif layer == "IA":
                secrets[tenant_slot(IA_SECRET_SK, record.name)] = record.ia_keys.private_key
                secrets[tenant_slot(IA_SECRET_K, record.name)] = record.ia_keys.symmetric_key
            else:
                raise ValueError(f"unknown layer {layer!r}")
        enclave.provision(secrets)
