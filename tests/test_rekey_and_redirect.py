"""Footnote-1 option 2: LRS re-encryption after a key rotation, by the
:class:`~repro.proxy.rekey.OnlineRekeyer` the rotation drill runs.  (The
§6.3 HTTP-redirection tests are in ``test_privacy_history.py``, the
``sec63`` bench.)"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.crypto.envelope import EnvelopeCodec, PaddingError, decode_identifier, encode_identifier
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.lrs.store import FeedbackEvent
from repro.proxy.rekey import OnlineRekeyer
from tests.test_lrs_store import interned_names, named_in
from tests.test_privacy_history import FEEDBACK, _stack


# -- re-encryption ---------------------------------------------------------


def _rekey_setup(provider_cls=RealCryptoProvider):
    rng, loop, network, harness, service, client = _stack(provider_cls=provider_cls)
    for user, item in FEEDBACK:
        client.post(user, item)
    loop.run()
    factory = KeyFactory(rng_int=rng.int_fn("rot"),
                         rng_bytes=rng.bytes_fn("rot-b"))
    return rng, loop, harness, service, client, factory


def _rekey(harness, client, old_keys, new_keys, layer):
    """Re-pseudonymize *layer*'s column of the whole store in one batch."""
    store = harness.engine.store
    rekeyer = OnlineRekeyer(store=store, provider=client.provider,
                            old_keys=old_keys, new_keys=new_keys, layer=layer)
    rekeyer.run_batch(len(store))
    assert rekeyer.done
    return rekeyer.report()


def test_rekey_preserves_event_count_and_structure():
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["IA"]
    before = [(e.user, e.item) for e in harness.engine.store.dump()]
    new_keys = service.rotate_layer("IA", factory)
    report = _rekey(harness, client, old_keys, new_keys, "IA")
    after = [(e.user, e.item) for e in harness.engine.store.dump()]
    assert report.events_processed == len(FEEDBACK)
    assert report.items_rekeyed == len(FEEDBACK)
    assert len(after) == len(before)
    # Users untouched, items re-pseudonymized.
    assert [u for u, _ in after] == [u for u, _ in before]
    assert all(a != b for (_, a), (_, b) in zip(after, before))


def test_rekey_keeps_the_service_functional():
    """After rotation + re-encryption, gets still decrypt correctly —
    the history is preserved (unlike the drop-database response)."""
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["IA"]
    new_keys = service.rotate_layer("IA", factory)
    _rekey(harness, client, old_keys, new_keys, "IA")
    harness.train()
    results = []
    client.get("a", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert "i3" in results[0].items  # history survived the rotation


def test_rekey_ua_layer():
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys["UA"]
    before_users = {e.user for e in harness.engine.store.dump()}
    new_keys = service.rotate_layer("UA", factory)
    report = _rekey(harness, client, old_keys, new_keys, "UA")
    after_users = {e.user for e in harness.engine.store.dump()}
    assert report.users_rekeyed == len(FEEDBACK)
    assert after_users.isdisjoint(before_users)
    # Pseudonym consistency preserved: same number of distinct users.
    assert len(after_users) == len(before_users)
    # ...and the store keeps no pre-rotation pseudonym beside them.
    assert interned_names(harness.engine.store) == named_in(harness.engine.store.dump())


@pytest.mark.parametrize("layer", ["UA", "IA"])
def test_a_rekey_pass_builds_no_record(layer):
    """A pass reads the one identifier column it rewrites, by sequence:
    no ``FeedbackEvent`` (a payload lookup and a bisect) per row."""
    _, loop, harness, service, client, factory = _rekey_setup()
    old_keys = service.provisioner.layer_keys[layer]
    new_keys = service.rotate_layer(layer, factory)
    with mock.patch("repro.lrs.store.FeedbackEvent", wraps=FeedbackEvent) as built:
        report = _rekey(harness, client, old_keys, new_keys, layer)
    assert report.events_processed == len(FEEDBACK)
    assert built.call_count == 0


def test_rekey_defeats_stolen_keys():
    """The point of the exercise: the adversary's stolen kIA no longer
    resolves anything in the re-encrypted store.  AES-CTR is not
    authenticated, so the paper's construction yields garbage rather
    than an error; the sim provider does not know the pseudonym."""
    originals = {encode_identifier(item) for _, item in FEEDBACK}
    for provider_cls in (RealCryptoProvider, SimCryptoProvider):
        _, loop, harness, service, client, factory = _rekey_setup(provider_cls)
        stolen = service.provisioner.layer_keys["IA"]
        new_keys = service.rotate_layer("IA", factory)
        _rekey(harness, client, stolen, new_keys, "IA")
        events = harness.engine.store.dump()
        assert len(events) == len(FEEDBACK)
        for event in events:
            try:
                recovered = client.provider.depseudonymize(
                    stolen.symmetric_key, EnvelopeCodec.wire_blob(event.item)
                )
            except ValueError:
                continue
            assert recovered not in originals
            with pytest.raises(PaddingError):
                decode_identifier(recovered)


def test_rekey_rejects_unknown_layer():
    _, loop, harness, service, client, factory = _rekey_setup()
    keys = service.provisioner.layer_keys["IA"]
    with pytest.raises(ValueError, match="layer"):
        OnlineRekeyer(store=harness.engine.store, provider=client.provider,
                      old_keys=keys, new_keys=keys, layer="XX")
