"""User-Interest unlinkability: the six cases of §6.1, mechanically.

Each scenario runs the real protocol end-to-end through the simulated
deployment with real cryptography, hands the adversary the paper's
observation surface (network flows, LRS database, one layer's leaked
secrets), and derives the closure of everything it can learn.  The
paper's claims hold at the paper's observation points; the suite also
pins down a *wire-level extension of case 2* this reproduction found
(see ``test_finding_wire_observation_extends_case_2``) and verifies
that the hardened-client-hop extension closes it, and runs the
adversary's own account through the known-plaintext rule against both
the package's pseudonym and the paper's constant-IV CTR.
"""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.service import HarnessService
from repro.privacy import Adversary, KnowledgeEngine, fifo_correlation
from repro.proxy import PProxConfig, build_pprox
from repro.proxy.rekey import reencrypt_store
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.oracles.aes_reference import reference_det_encrypt

CATALOG = {"i1", "i2", "i3", "i4", "i5"}
FEEDBACK = {
    "alice": ["i1", "i2", "i3"],
    "bob": ["i1", "i2", "i4"],
    "carol": ["i2", "i3", "i4"],
}


class PaperPseudonyms(RealCryptoProvider):
    """The real provider with the paper's det_enc pseudonyms: AES-CTR
    under a constant IV, from the seed oracle (a many-time pad)."""

    def pseudonymize(self, key: bytes, identifier: bytes) -> bytes:
        return reference_det_encrypt(key, identifier)

    depseudonymize = pseudonymize


class Scenario:
    """One full run: posts, training, gets, optional compromise."""

    def __init__(self, config: PProxConfig, seed: int = 13, provider_cls=RealCryptoProvider):
        rng = RngRegistry(seed=seed)
        self.rng = rng
        self.loop = EventLoop()
        self.network = Network(loop=self.loop, rng=rng.stream("net"))
        self.harness = HarnessService(loop=self.loop, rng=rng.stream("lrs"), frontend_count=3)
        self.harness.engine.trainer.llr_threshold = 0.0
        self.provider = provider_cls(rng_bytes=rng.bytes_fn("crypto"))
        ctx = SimContext(
            loop=self.loop, network=self.network, rng=rng, provider=self.provider
        )
        self.service = build_pprox(ctx, config, lrs_picker=self.harness.pick_frontend)
        self.adversary = Adversary()
        self.adversary.attach(self.network)
        self.adversary.observe_lrs(self.harness.engine.store)
        self.client = PProxClient(ctx, self.service)

    def drive_workload(self):
        for user, items in FEEDBACK.items():
            for item in items:
                self.client.post(user, item)
        self.loop.run()
        self.harness.train()
        for user in FEEDBACK:
            self.client.get(user)
        self.loop.run()

    def post_own_rating(self, item: str, user: str = "mallory") -> None:
        """The adversary registers an account, rates *item* and reads
        back the row its post wrote."""
        since = len(self.adversary.lrs_dump())
        self.client.post(user, item)
        self.loop.run()
        self.adversary.claim_own_post(user, item, since)

    def rotate_both_layers(self) -> None:
        """Footnote 1's re-encryption response, on both layers: fresh
        keys, and every stored pseudonym rewritten under them."""
        factory = KeyFactory(rng_int=self.rng.int_fn("rotation"),
                             rng_bytes=self.rng.bytes_fn("rotation-bytes"))
        store = self.harness.engine.store
        for layer in ("UA", "IA"):
            old_keys = self.service.provisioner.layer_keys[layer]
            new_keys = self.service.rotate_layer(layer, factory)
            reencrypt_store(store, self.provider, old_keys, new_keys, layer)

    def compromise(self, layer: str) -> None:
        instances = self.service.ua_instances if layer == "UA" else self.service.ia_instances
        enclave = instances[0].enclave
        enclave.mark_compromised()
        self.adversary.harvest_enclave(layer, enclave)

    def engine(self) -> KnowledgeEngine:
        return KnowledgeEngine.for_adversary(self.adversary, self.provider, catalog=CATALOG)

    def links_at_enclave(self, layer: str):
        """The paper's §6.1 observation point: messages at the broken
        enclave, plus the LRS database."""
        return self.engine().derive_links(
            self.adversary.messages_at(layer.lower()), self.adversary.lrs_dump()
        )

    def links_full_wire(self):
        """Everything the §2.3 adversary observes, everywhere."""
        return self.engine().derive_links(
            self.adversary.observations, self.adversary.lrs_dump()
        )


SHUFFLED = PProxConfig(shuffle_size=3, shuffle_timeout=0.05)


@pytest.fixture(scope="module")
def ua_broken():
    scenario = Scenario(SHUFFLED)
    scenario.drive_workload()
    scenario.compromise("UA")
    return scenario


@pytest.fixture(scope="module")
def ia_broken():
    scenario = Scenario(SHUFFLED)
    scenario.drive_workload()
    scenario.compromise("IA")
    return scenario


def test_no_compromise_no_links():
    scenario = Scenario(SHUFFLED)
    scenario.drive_workload()
    assert scenario.links_full_wire() == set()


def test_case_1a_1b_ua_broken_messages_at_enclave(ua_broken):
    """Cases 1(a) and 1(b): post interception and get-response
    interception at a broken UA enclave reveal no (user, item) link."""
    assert ua_broken.links_at_enclave("UA") == set()


def test_case_1c_ua_broken_plus_lrs_database(ua_broken):
    """Case 1(c): kUA de-pseudonymizes users in the LRS store, but
    items stay pseudonymous — no link."""
    links = ua_broken.engine().derive_links((), ua_broken.adversary.lrs_dump())
    assert links == set()


def test_ua_broken_full_wire_still_safe(ua_broken):
    """Stronger than the paper's case analysis: even observing every
    hop, UA secrets alone link nothing (items always under IA keys)."""
    assert ua_broken.links_full_wire() == set()


def test_case_2a_2b_ia_broken_messages_at_enclave(ia_broken):
    """Cases 2(a) and 2(b): at the IA enclave the adversary decrypts
    items and temporary keys, but every message's origin is a UA
    instance — shuffling removed the client correlation — so no link."""
    assert ia_broken.links_at_enclave("IA") == set()


def test_case_2c_ia_broken_plus_lrs_database(ia_broken):
    """Case 2(c): kIA de-pseudonymizes items in the LRS store, but
    users stay pseudonymous under kUA — no link."""
    links = ia_broken.engine().derive_links((), ia_broken.adversary.lrs_dump())
    assert links == set()


def test_ua_keys_resolve_users_but_not_items(ua_broken):
    """Sanity: the stolen secrets do decrypt what they should."""
    engine = ua_broken.engine()
    dump = ua_broken.adversary.lrs_dump()
    assert dump
    resolved_users = {engine.resolve_user(event.user) for event in dump}
    assert resolved_users == set(FEEDBACK)
    assert all(engine.resolve_item(event.item) is None for event in dump)


def test_ia_keys_resolve_items_but_not_users(ia_broken):
    engine = ia_broken.engine()
    dump = ia_broken.adversary.lrs_dump()
    resolved_items = {engine.resolve_item(event.item) for event in dump}
    assert resolved_items == set(CATALOG) - {"i5"}
    assert all(engine.resolve_user(event.user) is None for event in dump)


def test_finding_wire_observation_extends_case_2(ia_broken):
    """REPRODUCTION FINDING (documented in EXPERIMENTS.md):

    The paper's case 2(a) scopes interception to the IA enclave, where
    shuffling hides request origins.  But ``enc(i, pkIA)`` travels
    *unchanged* from the client to the UA, where the client's address
    is visible; an adversary holding skIA who also watches the
    client->UA wire decrypts items (and temporary keys, hence response
    blobs) right next to the IP — unlinkability falls without touching
    any UA secret.  Shuffling cannot help: no correlation is needed.
    """
    links = ia_broken.links_full_wire()
    assert links, "expected the wire-level case-2 extension to produce links"
    # Every user's items are exposed via their client address.
    for user, items in FEEDBACK.items():
        for item in items:
            assert (f"client-{user}", item) in links


def test_hardened_client_hop_closes_the_finding():
    """With the sealed client hop, the same IA-compromise + full-wire
    adversary learns nothing."""
    scenario = Scenario(PProxConfig(shuffle_size=3, shuffle_timeout=0.05,
                                    harden_client_hop=True))
    scenario.drive_workload()
    scenario.compromise("IA")
    assert scenario.links_full_wire() == set()


def test_hardened_hop_still_safe_under_ua_compromise():
    scenario = Scenario(PProxConfig(shuffle_size=3, shuffle_timeout=0.05,
                                    harden_client_hop=True))
    scenario.drive_workload()
    scenario.compromise("UA")
    assert scenario.links_full_wire() == set()


def test_both_layers_break_everything():
    """Outside the model: with both layers' secrets the closure engine
    recovers the complete user-item graph (showing the checker has
    teeth, and why the single-enclave assumption is load-bearing)."""
    scenario = Scenario(SHUFFLED)
    scenario.drive_workload()
    engine = KnowledgeEngine(
        provider=scenario.provider,
        ua_keys=scenario.service.provisioner.layer_keys["UA"],
        ia_keys=scenario.service.provisioner.layer_keys["IA"],
        catalog=CATALOG,
    )
    links = engine.derive_links(
        scenario.adversary.observations, scenario.adversary.lrs_dump()
    )
    for user, items in FEEDBACK.items():
        for item in items:
            assert (user, item) in links


def test_no_shuffling_plus_fifo_correlation_breaks_unlinkability():
    """§4.3's motivation: without shuffling, FIFO timing correlation
    plus IA secrets links a client address to its cleartext items."""
    scenario = Scenario(PProxConfig(shuffle_size=0))
    scenario.drive_workload()
    scenario.compromise("IA")
    engine = scenario.engine()
    observations = scenario.adversary.observations
    client_requests = [
        o for o in observations
        if o.kind == "request" and o.source.startswith("client") and o.verb == "POST"
    ]
    ua_to_ia = [
        o for o in observations
        if o.kind == "request" and o.source.startswith("pprox-ua") and o.verb == "POST"
    ]
    pairs = fifo_correlation(client_requests, ua_to_ia)
    links = engine.derive_links((), (), correlations=pairs)
    assert links
    assert any(identity.startswith("client-") for identity, _ in links)


def test_item_pseudonymization_disabled_weakens_case_1c():
    """§6.3: with items in the clear at the LRS, unlinkability only
    survives if UA enclaves are NOT broken — breaking one now links."""
    scenario = Scenario(PProxConfig(shuffle_size=3, shuffle_timeout=0.05,
                                    item_pseudonymization=False))
    scenario.drive_workload()
    scenario.compromise("UA")
    links = scenario.engine().derive_links((), scenario.adversary.lrs_dump())
    assert links  # kUA resolves users; items are already cleartext
    assert ("alice", "i1") in links


def test_item_pseudonymization_disabled_still_safe_without_compromise():
    scenario = Scenario(PProxConfig(shuffle_size=3, shuffle_timeout=0.05,
                                    item_pseudonymization=False))
    scenario.drive_workload()
    assert scenario.links_full_wire() == set()


# -- LRS database + own account, no keys ------------------------------------


def own_account_links(provider_cls, rotate: bool):
    """The closure of an LRS operator that holds no key but rated i5
    from an account of its own (and, across a rotation, i4 again under
    the new keys), over every database state it read."""
    scenario = Scenario(SHUFFLED, provider_cls=provider_cls)
    scenario.drive_workload()
    scenario.post_own_rating("i5")
    dumps = list(scenario.adversary.lrs_dump())
    if rotate:
        scenario.rotate_both_layers()
        scenario.post_own_rating("i4")
        dumps += scenario.adversary.lrs_dump()
    engine = scenario.engine()
    own_row = scenario.adversary.lrs_dump()[-1]
    # The rule has teeth on the pair it was given, whatever the cipher.
    assert engine.resolve_user(own_row.user) == "mallory"
    assert engine.resolve_item(own_row.item) == ("i4" if rotate else "i5")
    return engine.derive_links((), dumps)


@pytest.mark.parametrize("rotate", [False, True], ids=["one-epoch", "rotation"])
def test_lrs_database_plus_own_account_no_keys(rotate):
    """Threat-model row "LRS database + own account, no keys": the pad
    of the adversary's own pairs decodes no other pseudonym, so the
    closure is empty, on a rotation leg too."""
    assert own_account_links(RealCryptoProvider, rotate) == set()


@pytest.mark.parametrize("rotate", [False, True], ids=["one-epoch", "rotation"])
def test_own_account_decodes_every_row_under_the_papers_pseudonym(rotate):
    """The same adversary against the paper's constant-IV CTR: the pad
    is the keystream of its key and decodes every row — each epoch's
    own pair re-opens the store of that epoch."""
    links = own_account_links(PaperPseudonyms, rotate)
    for user, items in FEEDBACK.items():
        for item in items:
            assert (user, item) in links
    assert not any(identity == "mallory" for identity, _ in links)
