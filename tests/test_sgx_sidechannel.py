"""Side-channel attacks, detection, and the one-enclave invariant."""

from __future__ import annotations

import pytest

from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.sidechannel import (
    AttackModelError,
    BreachDetector,
    SideChannelAttack,
    SingleEnclaveInvariant,
)
from repro.simnet.clock import EventLoop


def _enclave(name: str = "e") -> Enclave:
    enclave = Enclave(
        name=name, measurement=EnclaveMeasurement.of_code("c"), host_node="n"
    )
    enclave.attested = True
    enclave.provision({"k": b"secret"})
    return enclave


def test_attack_degrades_performance_while_running():
    loop = EventLoop()
    enclave = _enclave()
    attack = SideChannelAttack(loop=loop, target=enclave, duration=100.0)
    attack.launch()
    assert enclave.performance_penalty > 1.0
    assert attack.started_at is not None and attack.completed_at is None


def test_attack_leaks_secrets_on_completion():
    loop = EventLoop()
    enclave = _enclave()
    leaked = []
    attack = SideChannelAttack(
        loop=loop, target=enclave, duration=100.0, on_success=leaked.append
    )
    attack.launch()
    loop.run()
    assert enclave.compromised
    assert leaked == [{"k": b"secret"}]
    assert enclave.performance_penalty == 1.0  # attack over, load normal


def test_attack_takes_tens_of_minutes_by_default():
    attack = SideChannelAttack(loop=EventLoop(), target=_enclave())
    assert attack.duration >= 10 * 60


def test_aborted_attack_leaks_nothing():
    loop = EventLoop()
    enclave = _enclave()
    attack = SideChannelAttack(loop=loop, target=enclave, duration=50.0)
    attack.launch()
    attack.abort()
    loop.run()
    assert not enclave.compromised
    assert enclave.performance_penalty == 1.0


def test_attack_cannot_launch_twice():
    attack = SideChannelAttack(loop=EventLoop(), target=_enclave(), duration=1.0)
    attack.launch()
    with pytest.raises(AttackModelError, match="already"):
        attack.launch()


def test_detector_fires_on_sustained_degradation():
    loop = EventLoop()
    enclave = _enclave()
    responses = []
    detector = BreachDetector(
        loop=loop,
        enclaves=[enclave],
        response=lambda e: responses.append(e.name),
        sampling_interval=10.0,
        confirmation_samples=3,
    )
    detector.start()
    attack = SideChannelAttack(loop=loop, target=enclave, duration=10_000.0)
    attack.launch()
    loop.run_until(100.0)
    assert responses == [enclave.name]
    assert detector.detections == [enclave.name]


def test_detector_ignores_healthy_enclaves():
    loop = EventLoop()
    enclave = _enclave()
    responses = []
    detector = BreachDetector(
        loop=loop, enclaves=[enclave], response=lambda e: responses.append(e)
    )
    detector.start()
    loop.run_until(500.0)
    detector.stop()
    assert responses == []


def test_detector_beats_a_second_attack():
    """The model's core timing assumption: detection + response happen
    well before a second enclave could be broken (attack duration is
    tens of minutes, detection takes ~minutes)."""
    detector = BreachDetector(loop=EventLoop(), enclaves=[], response=lambda e: None)
    attack = SideChannelAttack(loop=EventLoop(), target=_enclave())
    assert detector.sampling_interval * detector.confirmation_samples < attack.duration


def test_detector_resets_suspicion_on_recovery():
    loop = EventLoop()
    enclave = _enclave()
    responses = []
    detector = BreachDetector(
        loop=loop,
        enclaves=[enclave],
        response=lambda e: responses.append(e),
        sampling_interval=10.0,
        confirmation_samples=3,
    )
    detector.start()
    enclave.performance_penalty = 3.0
    loop.run_until(20.0)  # two suspicious samples, below threshold
    enclave.performance_penalty = 1.0
    loop.run_until(60.0)
    enclave.performance_penalty = 3.0
    loop.run_until(80.0)  # two more suspicious samples, still < 3 consecutive
    detector.stop()
    assert responses == []


def test_invariant_allows_one_layer():
    invariant = SingleEnclaveInvariant()
    invariant.record_leak("UA")
    assert invariant.violations == 0


def test_invariant_rejects_both_layers():
    invariant = SingleEnclaveInvariant()
    invariant.record_leak("UA")
    with pytest.raises(AttackModelError, match="both layers"):
        invariant.record_leak("IA")
    assert invariant.violations == 1


def test_invariant_allows_second_layer_after_rotation():
    """Sequential compromises with a rotation in between are inside
    the model — the rotated layer's leaked keys are dead."""
    invariant = SingleEnclaveInvariant()
    invariant.record_leak("UA")
    invariant.record_rotation("UA")
    invariant.record_leak("IA")
    assert invariant.violations == 0


def test_invariant_rejects_unknown_layer():
    with pytest.raises(AttackModelError, match="unknown layer"):
        SingleEnclaveInvariant().record_leak("XX")
