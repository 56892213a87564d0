"""Multi-tenant RaaS deployments (§6.3 traffic-aggregation mitigation)."""

from repro.tenancy.directory import TenantDirectory, TenantRecord, tenant_slot
from repro.tenancy.service import (
    MultiTenantPProxService,
    TenantItemAnonymizer,
    TenantUserAnonymizer,
    build_multi_tenant_pprox,
)

__all__ = [
    "TenantDirectory",
    "TenantRecord",
    "tenant_slot",
    "TenantUserAnonymizer",
    "TenantItemAnonymizer",
    "MultiTenantPProxService",
    "build_multi_tenant_pprox",
]
