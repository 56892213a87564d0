"""Privacy invariants re-proven end-to-end on the binary wire.

The §6.1 closure analysis, the §4.3 constant-size property and the
reject-uniformity audit were all established on the seed wire; this
suite replays them with ``codec="binary"`` (batch envelopes armed) and
requires the *same verdicts* — including the reproduction's wire-level
case-2 finding and its hardened-hop fix.  A wire format that changed
any of these answers would be a privacy regression, however fast.
"""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import SimContext
from repro.crypto.provider import RealCryptoProvider
from repro.experiments.rig import observe_wire
from repro.lrs.service import HarnessService
from repro.privacy import KnowledgeEngine
from repro.privacy.wire import epoch_tag_exposures, trace_field_exposures
from repro.proxy import PProxConfig, build_pprox
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from tests.conftest import constant_size_violations

CATALOG = {"i1", "i2", "i3", "i4", "i5"}
FEEDBACK = {
    "alice": ["i1", "i2", "i3"],
    "bob": ["i1", "i2", "i4"],
    "carol": ["i2", "i3", "i4"],
}


class WireScenario:
    """One full posts/train/gets run under a chosen wire codec."""

    def __init__(self, config: PProxConfig, codec, seed: int = 13):
        rng = RngRegistry(seed=seed)
        self.loop = EventLoop()
        self.network = Network(loop=self.loop, rng=rng.stream("net"))
        self.harness = HarnessService(
            loop=self.loop, rng=rng.stream("lrs"), frontend_count=3
        )
        self.harness.engine.trainer.llr_threshold = 0.0
        self.provider = RealCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
        ctx = SimContext(
            loop=self.loop, network=self.network, rng=rng,
            provider=self.provider, codec=codec,
        )
        self.service = build_pprox(ctx, config, lrs_picker=self.harness.pick_frontend)
        self.adversary, self.rejects = observe_wire(self.network, self.harness)
        self.client = PProxClient(ctx, self.service)
        self.results = {}

    def drive_workload(self):
        for user, items in FEEDBACK.items():
            for item in items:
                self.client.post(user, item)
        self.loop.run()
        self.harness.train()
        self.get_phase_start = self.loop.now
        for user in FEEDBACK:
            def capture(user=user):
                def on_complete(call):
                    self.results[user] = (call.ok, sorted(
                        str(item) for item in (call.items or ())
                    ))
                return on_complete

            self.client.get(user, on_complete=capture())
        self.loop.run()
        return self

    def compromise(self, layer: str) -> None:
        instances = (self.service.ua_instances if layer == "UA"
                     else self.service.ia_instances)
        enclave = instances[0].enclave
        enclave.mark_compromised()
        self.adversary.harvest_enclave(layer, enclave)

    def links_full_wire(self):
        engine = KnowledgeEngine.for_adversary(
            self.adversary, self.provider, catalog=CATALOG
        )
        return engine.derive_links(
            self.adversary.observations, self.adversary.lrs_dump()
        )

    def batch_counters(self):
        sealed = sum(i.batch_envelopes_sealed for i in self.service.ua_instances)
        opened = sum(i.batch_envelopes_opened for i in self.service.ia_instances)
        return sealed, opened


SHUFFLED = PProxConfig(shuffle_size=3, shuffle_timeout=0.05)
HARDENED = PProxConfig(shuffle_size=3, shuffle_timeout=0.05, harden_client_hop=True)


@pytest.fixture(scope="module")
def binary_run():
    return WireScenario(SHUFFLED, codec="binary").drive_workload()


@pytest.fixture(scope="module")
def binary_ia_broken(binary_run):
    binary_run.compromise("IA")
    return binary_run


def test_binary_run_completes_and_uses_batch_envelopes(binary_run):
    assert set(binary_run.results) == set(FEEDBACK)
    assert all(ok for ok, _ in binary_run.results.values())
    sealed, opened = binary_run.batch_counters()
    assert sealed > 0, "batch-envelope path never exercised"
    assert sealed == opened


def test_binary_wire_semantic_parity_with_json(binary_run):
    """Same seed, both wires: the recommendations must be identical —
    the codec changes bytes, never results."""
    reference = WireScenario(SHUFFLED, codec="json").drive_workload()
    assert binary_run.results == reference.results


def test_binary_frames_keep_constant_size(binary_run):
    """§4.3 on the binary wire: fixed-offset headers plus raw
    fixed-size ciphertext fields keep every protected hop at one
    frame size regardless of identifiers.  The property holds per
    call type (a post ack and an item response legitimately differ on
    any wire), so it is checked within the get phase."""
    get_flows = [flow for flow in binary_run.adversary.flow_records
                 if flow.time >= binary_run.get_phase_start]
    violations = constant_size_violations(get_flows)
    assert violations == [], violations


def test_binary_wire_audits_clean(binary_run):
    assert epoch_tag_exposures(binary_run.adversary.observations) == []
    assert trace_field_exposures(binary_run.adversary.observations) == []
    assert binary_run.rejects.violations() == []


def test_binary_no_compromise_no_links(binary_run):
    assert binary_run.links_full_wire() == set()


def test_binary_wire_finding_still_detected(binary_ia_broken):
    """The wire-level case-2 extension (IA secrets + full wire) must
    reproduce on binary framing too — a codec that *hid* the finding
    would be masking information the adversary demonstrably has."""
    links = binary_ia_broken.links_full_wire()
    assert links, "expected the case-2 wire extension to produce links"


def test_binary_hardened_hop_closes_the_finding():
    scenario = WireScenario(HARDENED, codec="binary").drive_workload()
    assert set(scenario.results) == set(FEEDBACK)
    assert all(ok for ok, _ in scenario.results.values())
    sealed, opened = scenario.batch_counters()
    assert sealed > 0 and sealed == opened
    scenario.compromise("IA")
    assert scenario.links_full_wire() == set()
