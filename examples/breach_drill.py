"""Security drill: a side-channel attack against a PProx enclave.

Walks through the paper's adversary model end-to-end:

1. live traffic flows through the deployment while the adversary taps
   every network link and reads the LRS database;
2. the adversary mounts a cache-timing campaign against one IA
   enclave (completion time: tens of simulated minutes, §2.3);
3. a Varys-style breach detector notices the performance anomaly and
   triggers the breach response (key rotation, footnote 1);
4. at each stage we compute the *closure* of what the adversary can
   link — demonstrating that user-interest unlinkability holds.

Also demonstrates the model's boundary: if both layers' secrets are
stolen simultaneously (outside the adversary model), everything links.

Run:  python examples/breach_drill.py
"""

from __future__ import annotations

from repro.context import Deployment, SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs import HarnessService
from repro.privacy import Adversary, KnowledgeEngine
from repro.proxy import PProxConfig
from repro.sgx import BreachDetector, SideChannelAttack

TASTES = {
    "alice": ["thriller-1", "thriller-2", "docu-1"],
    "bob": ["thriller-1", "thriller-3"],
    "carol": ["docu-1", "docu-2", "thriller-2"],
}
CATALOG = {item for items in TASTES.values() for item in items}


def main() -> None:
    ctx = SimContext.fresh(99)
    loop, network, rng = ctx.loop, ctx.network, ctx.rng
    harness = HarnessService(loop=loop, rng=rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    provider = ctx.provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(shuffle_size=3, shuffle_timeout=0.1),
        lrs_picker=harness.pick_frontend,
    )
    service = deployment.service
    client = deployment.client(rng=rng.stream("c"))

    adversary = Adversary()
    adversary.attach(network)
    adversary.observe_lrs(harness.engine.store)

    def closure() -> set:
        engine = KnowledgeEngine.for_adversary(adversary, provider, catalog=CATALOG)
        return engine.derive_links(adversary.observations, adversary.lrs_dump())

    print("phase 1: normal operation under full network observation")
    for user, items in TASTES.items():
        for item in items:
            client.post(user, item)
    loop.run()
    harness.train()
    for user in TASTES:
        client.get(user)
    loop.run()
    print(f"  observed flows: {len(adversary.flow_records)},"
          f" LRS rows: {len(adversary.lrs_dump())}")
    print(f"  derivable (user, item) links: {len(closure())}  <- nothing\n")

    print("phase 2: side-channel campaign against an IA enclave")
    target = service.ia_instances[0].enclave
    attack = SideChannelAttack(
        loop=loop, target=target, duration=1800.0,
        on_success=lambda secrets: adversary.harvest_enclave("IA", target),
    )

    factory = KeyFactory(rsa_bits=1024, rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))

    def respond(enclave) -> None:
        layer = "UA" if enclave.name.startswith("ua") else "IA"
        print(f"  [detector] anomaly on {enclave.name} at t={loop.now:.0f}s"
              f" -> rotating {layer} keys, dropping stale LRS state,"
              f" aborting campaign")
        # Footnote 1, option 1: fresh keys + drop the pseudonymous DB
        # (its pseudonyms were minted under the retired keys).
        service.breach_response(layer, factory, lrs_store=harness.engine.store)
        harness.train()
        adversary.drop_secrets(layer)
        attack.abort()

    detector = BreachDetector(loop=loop, enclaves=service.all_enclaves(),
                              response=respond, sampling_interval=30.0,
                              confirmation_samples=3)
    detector.start()
    attack.launch()
    print(f"  attack launched at t={loop.now:.0f}s"
          f" (completes in {attack.duration:.0f}s if undetected;"
          f" enclave slowed {attack.performance_penalty:.0f}x)")
    loop.run_until(loop.now + 600.0)
    detector.stop()
    print(f"  campaign aborted: {attack.aborted};"
          f" enclave compromised: {target.compromised}")
    print(f"  derivable links: {len(closure())}  <- detection beat the attack\n")

    print("phase 3: assume the worst — a later campaign DOES finish")
    target.mark_compromised()
    adversary.harvest_enclave("IA", target)
    # Users keep using the service after the (undetected) compromise.
    for user, items in TASTES.items():
        client.post(user, items[0])
        client.get(user)
    loop.run()
    engine = KnowledgeEngine.for_adversary(adversary, provider, catalog=CATALOG)
    at_enclave = engine.derive_links(
        adversary.messages_at("ia"), adversary.lrs_dump()
    )
    print("  IA secrets stolen; derivable links at the paper's observation")
    print(f"  points (messages at the IA enclave + LRS db): {len(at_enclave)}  <- §6.1 case 2 holds")
    links = closure()
    print(f"  full-wire closure (reproduction finding, see EXPERIMENTS.md): {len(links)}")
    print("  -> enable PProxConfig(harden_client_hop=True) to close the wire variant\n")

    print("phase 4: outside the model — both layers at once")
    engine = KnowledgeEngine(
        provider=provider,
        ua_keys=service.provisioner.layer_keys["UA"],
        ia_keys=service.provisioner.layer_keys["IA"],
        catalog=CATALOG,
    )
    links = engine.derive_links(adversary.observations, adversary.lrs_dump())
    print(f"  derivable links: {len(links)} — e.g. {sorted(links)[:3]}")
    print("  (this is why the single-enclave-at-a-time assumption, backed by")
    print("   detection + rotation, is load-bearing)")


if __name__ == "__main__":
    main()
