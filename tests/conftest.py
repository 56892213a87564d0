"""Shared fixtures: deterministic RNG, key material, small deployments."""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import LayerKeys
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.crypto.rsa import generate_keypair
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def tap_flows(network: Network) -> list:
    """The :class:`FlowRecord` of every send on *network* from now on,
    collected the one way the wire can be watched: a wiretap."""
    flows: list = []
    network.add_wiretap(lambda record, _payload: flows.append(record))
    return flows


@pytest.fixture
def rng_registry() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def network(loop, rng_registry) -> Network:
    return Network(loop=loop, rng=rng_registry.stream("net"))


# Key generation is the slowest fixture; share one deterministic
# keypair per session.
@pytest.fixture(scope="session")
def session_keypair():
    rng = random.Random(99)
    return generate_keypair(lambda bound: rng.randrange(bound))


@pytest.fixture(scope="session")
def layer_keys(session_keypair) -> LayerKeys:
    _, private_key = session_keypair
    return LayerKeys(private_key=private_key, symmetric_key=bytes(range(32)))


@pytest.fixture(scope="session")
def second_layer_keys() -> LayerKeys:
    rng = random.Random(77)
    _, private_key = generate_keypair(lambda bound: rng.randrange(bound))
    return LayerKeys(private_key=private_key, symmetric_key=bytes(range(32, 64)))


def _seeded_bytes(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""


@pytest.fixture(params=["real", "sim"])
def any_provider(request):
    """Parametrized fixture covering both crypto providers."""
    factories = {
        "real": lambda: RealCryptoProvider(rng_bytes=_seeded_bytes(5)),
        "sim": lambda: SimCryptoProvider(rng_bytes=_seeded_bytes(7)),
    }
    return factories[request.param]()


@pytest.fixture
def real_provider():
    return RealCryptoProvider(rng_bytes=_seeded_bytes(8))


@pytest.fixture
def sim_provider():
    return SimCryptoProvider(rng_bytes=_seeded_bytes(10))
