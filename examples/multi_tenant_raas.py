"""A RaaS provider serving several applications through one PProx.

The §6.3 "Assumption on traffic" scenario: a niche forum alone cannot
fill shuffle buffers at night, so its users eat the flush-timer
latency.  The RaaS provider instead runs *one* shared proxy layer for
all its client applications — aggregated traffic fills batches — with
per-tenant keys so applications stay cryptographically isolated from
each other.  The blast-radius cost the paper warns about is shown at
the end.

Run:  python examples/multi_tenant_raas.py
"""

from __future__ import annotations

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs import HarnessService
from repro.proxy import PProxConfig
from repro.simnet import EventLoop, Network, RngRegistry
from repro.tenancy import TenantDirectory, build_multi_tenant_pprox, tenant_slot
from repro.workload import Injector

TENANTS = ("webshop", "forum", "news")


def main() -> None:
    rng = RngRegistry(seed=17)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    factory = KeyFactory(rng_int=rng.int_fn("keys"),
                         rng_bytes=rng.bytes_fn("keys-b"))

    directory = TenantDirectory()
    harnesses = {}
    for name in TENANTS:
        harness = HarnessService(loop=loop, rng=rng.stream(f"lrs-{name}"),
                                 frontend_count=3, name=f"harness-{name}")
        harness.engine.trainer.llr_threshold = 0.0
        harnesses[name] = harness
        directory.register(
            TenantDirectory.make_tenant(name, factory, harness.pick_frontend)
        )

    provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    config = PProxConfig(shuffle_size=10, shuffle_timeout=0.5)
    ctx = SimContext(loop=loop, network=network, rng=rng, provider=provider)
    service = build_multi_tenant_pprox(ctx, config, directory)
    clients = {
        name: PProxClient(
            ctx, service, rng=rng.stream(f"client-{name}"),
            material=directory.record(name).client_material, tenant=name,
        )
        for name in TENANTS
    }

    # Each tenant alone offers only ~15 RPS — far too thin to fill an
    # S=10 buffer quickly.  Together they offer 45 RPS.
    recorders = {name: [] for name in TENANTS}
    injectors = []
    for name in TENANTS:
        injector = Injector(loop, rng.stream(f"inj-{name}"))
        injector.inject(
            15, 20.0,
            lambda cb, c=clients[name]: c.get("user-1", on_complete=cb),
        )
        injectors.append((name, injector))
    loop.run()

    print("shared proxy, S=10, flush timer 0.5 s; per-tenant offered load 15 RPS")
    print(f"{'tenant':>8s} {'completed':>10s} {'median ms':>10s}")
    for name, injector in injectors:
        latencies = sorted(injector.recorder.latencies())
        median = latencies[len(latencies) // 2] * 1000
        print(f"{name:>8s} {injector.report.completed:10d} {median:10.1f}")

    shared_median = sorted(
        latency for _, injector in injectors for latency in injector.recorder.latencies()
    )
    print(f"\naggregated traffic keeps shuffle delay bounded"
          f" (overall median {shared_median[len(shared_median)//2]*1000:.0f} ms;"
          f" a single tenant at 15 RPS alone would wait ~2x the 0.5 s timer).")

    # Cryptographic isolation between tenants:
    print("\nper-tenant pseudonym isolation:")
    clients["webshop"].post("alice", "lamp")
    clients["forum"].post("alice", "lamp")
    loop.run()
    shop_row = harnesses["webshop"].engine.store.dump()[-1]
    forum_row = harnesses["forum"].engine.store.dump()[-1]
    print(f"  webshop sees alice as {shop_row.user[:20]}…")
    print(f"  forum   sees alice as {forum_row.user[:20]}…")
    print("  same person, unlinkable across applications")

    # The paper's warning: one broken shared enclave leaks everyone.
    enclave = service.ua_instances[0].enclave
    enclave.mark_compromised()
    leaked = enclave.leak_secrets()
    from repro.sgx.provisioning import UA_SECRET_K

    exposed = [name for name in TENANTS if tenant_slot(UA_SECRET_K, name) in leaked]
    print(f"\nblast radius of one broken shared UA enclave: {exposed}")
    print("(the multi-tenancy trade-off of §6.3: more traffic, bigger blast radius)")


if __name__ == "__main__":
    main()
