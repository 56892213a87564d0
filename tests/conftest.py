"""Shared fixtures: deterministic RNG, key material, small deployments."""

from __future__ import annotations

import io
import itertools
import os
import random

import pytest

from repro.crypto.keys import LayerKeys
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.crypto.rsa import generate_keypair
from repro.privacy.wire import hop_of
from repro.rest import messages
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry
from repro.telemetry.events import EventLog


def tap_flows(network: Network) -> list:
    """The :class:`FlowRecord` of every send on *network* from now on,
    collected the one way the wire can be watched: a wiretap."""
    flows: list = []
    network.add_wiretap(lambda record, _payload: flows.append(record))
    return flows


def objective(report, name: str):
    """The measurement of the objective called *name* in an SLO *report*."""
    (measurement,) = [m for m in report.measurements if m.name == name]
    return measurement


#: The hops whose message sizes must not depend on identifiers or
#: list contents: everything between the client and the IA layer.
#: (IA<->LRS flows are pseudonymous by construction, so their sizes
#: need not be padded.)
PROTECTED_HOPS = (("client", "ua"), ("ua", "ia"), ("ia", "ua"), ("ua", "client"))


def flow_size_profile(records) -> dict:
    """Distinct message sizes observed per hop class."""
    profile: dict = {}
    for record in records:
        profile.setdefault(hop_of(record), set()).add(record.size_bytes)
    return profile


def constant_size_violations(records) -> list:
    """Protected hops (:data:`PROTECTED_HOPS`) whose message sizes vary:
    the §4.3 constant-size property, read off a wiretap."""
    profile = flow_size_profile(records)
    return [
        f"{hop[0]}->{hop[1]}: sizes {sorted(profile[hop])}"
        for hop in PROTECTED_HOPS
        if len(profile.get(hop, ())) > 1
    ]


#: Request ids for hand-built test messages (product code draws them
#: from a context's or a client's own counter).
_REQUEST_IDS = itertools.count(1)


def streamed(telemetry) -> io.StringIO:
    """An in-memory text stream *telemetry*'s event log writes every
    record to from now on (read it back with :func:`written`)."""
    stream = io.StringIO()
    telemetry.stream_to(stream)
    return stream


def written(stream: io.StringIO, kind=None) -> list:
    """The records *stream* holds, in emission order; of *kind* only,
    if given."""
    records = EventLog.parse_jsonl(stream.getvalue())
    return [record for record in records if kind is None or record["kind"] == kind]


def drill_records(rig, kind=None) -> list:
    """The records of the ``telemetry.jsonl`` a drill rig streamed into
    its out-dir, as :func:`written` reads them."""
    with open(os.path.join(rig.out_dir, "telemetry.jsonl"), encoding="utf-8") as handle:
        return written(io.StringIO(handle.read()), kind)


def make_get(user, client_address="client", request_id=None, **extra):
    """:func:`repro.rest.messages.make_get`, numbered from the test counter
    when no *request_id* is given."""
    if request_id is None:
        request_id = next(_REQUEST_IDS)
    return messages.make_get(user, client_address=client_address, request_id=request_id, **extra)


def make_post(user, item, payload=None, client_address="client", request_id=None):
    """:func:`repro.rest.messages.make_post`, numbered as :func:`make_get`."""
    if request_id is None:
        request_id = next(_REQUEST_IDS)
    return messages.make_post(
        user, item, payload, client_address=client_address, request_id=request_id
    )


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
