"""Epoch machinery: wire codec, windows, online rekeyer, coordinator."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import EnvelopeCodec, encode_identifier
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.store import EventStore
from repro.proxy.epochs import (
    EPOCH_FIELD,
    EPOCH_WIDTH,
    MAX_EPOCH,
    OVERLOAD_HOLD_SOJOURN,
    ROTATION_STATES,
    EpochWindow,
    HoldTheLine,
    RotationCoordinator,
    decode_epoch,
    encode_epoch,
    epoch_slot,
    epoch_window_of,
    hold_reason,
    stamp_epoch,
    window_candidates,
)
from repro.proxy.rekey import OnlineRekeyer, RekeyReport
from repro.rest.header import EPOCH, strip
from repro.rest.messages import make_get
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveMeasurement
from repro.sgx.provisioning import (
    EPOCH_WINDOW_SLOT,
    UA_SECRET_K,
    UA_SECRET_SK,
    KeyProvisioner,
)
from repro.simnet.clock import EventLoop

wire_text = EnvelopeCodec.wire_text
wire_blob = EnvelopeCodec.wire_blob


@pytest.fixture(scope="module")
def factory():
    rng = random.Random(17)
    return KeyFactory(
        rsa_bits=1024,
        rng_int=lambda b: rng.randrange(b),
        rng_bytes=lambda n: bytes(rng.randrange(256) for _ in range(n)),
    )


# -- wire codec ---------------------------------------------------------


def test_encode_epoch_is_fixed_width():
    assert encode_epoch(0) == "0000"
    assert encode_epoch(37) == "0037"
    assert len(encode_epoch(MAX_EPOCH)) == EPOCH_WIDTH


def test_encode_epoch_clamps_out_of_range():
    assert encode_epoch(-5) == "0000"
    assert encode_epoch(MAX_EPOCH + 100) == encode_epoch(MAX_EPOCH)


def test_stamp_and_decode_roundtrip():
    request = make_get("alice")
    stamped = stamp_epoch(request, 3)
    assert decode_epoch(stamped) == 3
    assert stamped.fields[EPOCH_FIELD] == "0003"


def test_stamp_none_returns_request_unchanged():
    request = make_get("alice")
    assert stamp_epoch(request, None) is request


def test_strip_removes_tag_and_returns_id():
    stamped = stamp_epoch(make_get("alice"), 7)
    bare, severed = strip(stamped, EPOCH)
    assert decode_epoch(severed) == 7
    assert EPOCH_FIELD not in bare.fields


def test_strip_without_tag_is_noop():
    request = make_get("alice")
    bare, severed = strip(request, EPOCH)
    assert severed == {} and bare is request


def test_decode_garbage_returns_none():
    assert decode_epoch({EPOCH_FIELD: "notanint"}) is None
    assert decode_epoch({}) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=MAX_EPOCH))
def test_codec_roundtrip_property(epoch_id):
    """Any valid epoch id survives stamp->strip at constant width."""
    stamped = stamp_epoch(make_get("u"), epoch_id)
    assert len(stamped.fields[EPOCH_FIELD]) == EPOCH_WIDTH
    bare, severed = strip(stamped, EPOCH)
    assert decode_epoch(severed) == epoch_id
    assert EPOCH_FIELD not in bare.fields


# -- provisioner epoch flow --------------------------------------------


def _enclave(code: str = "ua-code", name: str = "e0") -> Enclave:
    return Enclave(
        name=name, measurement=EnclaveMeasurement.of_code(code), host_node="n"
    )


@pytest.fixture
def provisioner(factory):
    return KeyProvisioner(
        attestation=AttestationService(),
        expected_measurements={
            "UA": EnclaveMeasurement.of_code("ua-code"),
            "IA": EnclaveMeasurement.of_code("ia-code"),
        },
        layer_keys={"UA": factory.layer_keys(), "IA": factory.layer_keys()},
    )


def test_announce_flips_active_and_keeps_previous(provisioner, factory):
    enclave = _enclave()
    provisioner.provision("UA", enclave)
    old_keys = provisioner.layer_keys["UA"]
    new_keys = factory.layer_keys()
    old_id, new_id = provisioner.announce_epoch("UA", new_keys, [enclave])
    assert (old_id, new_id) == (0, 1)
    assert provisioner.active_epoch("UA") == 1
    # Base slots hold the new (active) keys; the previous generation
    # stays decryptable under its suffixed slots.
    assert enclave.secret(UA_SECRET_K) == new_keys.symmetric_key
    assert enclave.secret(epoch_slot(UA_SECRET_SK, 0)) is old_keys.private_key
    window = epoch_window_of(enclave)
    assert window == EpochWindow(layer="UA", active_epoch=1, previous_epoch=0)


def test_announce_twice_without_retire_raises(provisioner, factory):
    enclave = _enclave()
    provisioner.provision("UA", enclave)
    provisioner.announce_epoch("UA", factory.layer_keys(), [enclave])
    with pytest.raises(ValueError, match="open epoch window"):
        provisioner.announce_epoch("UA", factory.layer_keys(), [enclave])


def test_retire_wipes_previous_epoch_slots(provisioner, factory):
    enclave = _enclave()
    provisioner.provision("UA", enclave)
    provisioner.announce_epoch("UA", factory.layer_keys(), [enclave])
    retired = provisioner.retire_epoch("UA", [enclave])
    assert retired == 0
    assert epoch_window_of(enclave) is None
    assert not enclave.sealed.contains(epoch_slot(UA_SECRET_SK, 0))
    assert provisioner.active_epoch("UA") == 1


def test_retire_without_window_raises(provisioner):
    with pytest.raises(ValueError, match="no open epoch window"):
        provisioner.retire_epoch("UA", [])


def test_generation_tracking_detects_stale_enclaves(provisioner, factory):
    seen, missed = _enclave(name="seen"), _enclave(name="missed")
    provisioner.provision("UA", seen)
    provisioner.provision("UA", missed)
    provisioner.announce_epoch("UA", factory.layer_keys(), [seen])
    assert provisioner.verify_generation(seen)
    assert not provisioner.verify_generation(missed)
    provisioner.reprovision("UA", missed)
    assert provisioner.verify_generation(missed)
    assert epoch_window_of(missed) is not None


def test_epoch_window_probe_costs_no_ecall_when_closed(provisioner):
    enclave = _enclave()
    provisioner.provision("UA", enclave)
    before = enclave.ecall_count
    assert epoch_window_of(enclave) is None
    assert enclave.ecall_count == before


def test_window_candidates_yield_active_first(provisioner, factory):
    enclave = _enclave()
    provisioner.provision("UA", enclave)
    old_keys = provisioner.layer_keys["UA"]
    provisioner.announce_epoch("UA", factory.layer_keys(), [enclave])
    active = provisioner.layer_keys["UA"]
    window = epoch_window_of(enclave)
    candidates = list(window_candidates(enclave, active, window))
    assert [is_previous for _, is_previous in candidates] == [False, True]
    assert candidates[0][0] is active
    # The previous candidate decrypts with the old private key but
    # always pseudonymizes forward under the ACTIVE symmetric key.
    assert candidates[1][0].private_key is old_keys.private_key
    assert candidates[1][0].symmetric_key == active.symmetric_key


# -- store rewrite + online rekeyer ------------------------------------


def test_rewrite_keeps_indexes_consistent():
    store = EventStore()
    event = store.insert("u-old", "i1", payload="p")
    store.insert("u-other", "i1")
    store.rewrite(event.sequence, user="u-new")
    assert store.user_history("u-new") == ["i1"]
    assert store.user_history("u-old") == []
    assert sorted(store.item_audience("i1")) == ["u-new", "u-other"]
    assert store.events[0].payload == "p"
    assert store.events[0].sequence == event.sequence


def test_rewrite_unchanged_values_is_noop():
    store = EventStore()
    event = store.insert("u", "i")
    same = store.rewrite(event.sequence, user="u")
    assert same is store.events[0]


def _pseudonymous_store(provider, key, pairs):
    store = EventStore()
    for user, item in pairs:
        store.insert(
            wire_text(provider.pseudonymize(key, encode_identifier(user))),
            wire_text(provider.pseudonymize(key, encode_identifier(item))),
        )
    return store


def test_online_rekeyer_is_resumable(factory):
    provider = RealCryptoProvider(rng_bytes=random.Random(3).randbytes)
    old_keys, new_keys = factory.layer_keys(), factory.layer_keys()
    store = _pseudonymous_store(
        provider, old_keys.symmetric_key,
        [(f"u{i}", f"i{i}") for i in range(10)],
    )
    rekeyer = OnlineRekeyer(
        store=store, provider=provider, old_keys=old_keys, new_keys=new_keys,
        layer="UA",
    )
    assert rekeyer.target == 10
    assert rekeyer.run_batch(4) == 4
    assert not rekeyer.done
    assert rekeyer.progress_ratio == pytest.approx(0.4)
    # Resume from the cursor (a pause/crash in between changes nothing).
    assert rekeyer.run_batch(100) == 6
    assert rekeyer.done
    for event in store.events:
        plain = provider.depseudonymize(new_keys.symmetric_key, wire_blob(event.user))
        assert plain.startswith(b"\x00")  # decodes under the NEW key


def test_online_rekeyer_target_excludes_rows_inserted_after_snapshot(factory):
    provider = RealCryptoProvider(rng_bytes=random.Random(4).randbytes)
    old_keys, new_keys = factory.layer_keys(), factory.layer_keys()
    store = _pseudonymous_store(
        provider, old_keys.symmetric_key, [("a", "x"), ("b", "y")]
    )
    rekeyer = OnlineRekeyer(
        store=store, provider=provider, old_keys=old_keys, new_keys=new_keys,
        layer="UA",
    )
    # A new-epoch row lands mid-pass (the proxy layers already encrypt
    # forward under the new keys): the rekeyer must not touch it.
    fresh = wire_text(provider.pseudonymize(new_keys.symmetric_key, encode_identifier("c")))
    store.insert(fresh, "z")
    rekeyer.run_batch(100)
    assert rekeyer.done
    assert rekeyer.cursor == 2
    assert store.events[2].user == fresh


def test_translate_cache_counts_hits_and_misses(factory):
    provider = RealCryptoProvider(rng_bytes=random.Random(5).randbytes)
    old_keys, new_keys = factory.layer_keys(), factory.layer_keys()
    store = _pseudonymous_store(
        provider, old_keys.symmetric_key,
        [("same", "i1"), ("same", "i2"), ("same", "i3"), ("other", "i4")],
    )
    rekeyer = OnlineRekeyer(
        store=store, provider=provider, old_keys=old_keys, new_keys=new_keys,
        layer="UA",
    )
    rekeyer.run_batch(100)
    report = rekeyer.report()
    assert report.translate_cache_misses == 2  # "same" and "other"
    assert report.translate_cache_hits == 2
    assert report.events_processed == 4


def test_rekeyer_rejects_unknown_layer(factory):
    with pytest.raises(ValueError, match="layer"):
        OnlineRekeyer(
            store=EventStore(), provider=RealCryptoProvider(),
            old_keys=factory.layer_keys(), new_keys=factory.layer_keys(),
            layer="XX",
        )


def test_rekey_report_accepts_legacy_positional_construction():
    report = RekeyReport(10, 10, 0, "UA")
    assert report.translate_cache_hits == 0
    assert report.translate_cache_misses == 0


# -- shuffle floor bookkeeping -----------------------------------------


def test_min_flush_size_tracks_releases_not_drains():
    from repro.proxy.shuffler import ShuffleBuffer

    loop = EventLoop()
    buffer = ShuffleBuffer(
        loop=loop, rng=random.Random(1), size=3, timeout=0.5,
        release=lambda entry: None,
    )
    for entry in range(3):
        buffer.add(entry)
    assert buffer.min_flush_size == 3
    # A crash drain discards its batch without releasing it: the floor
    # of *released* batches must not move.
    buffer.add("doomed")
    buffer.drain()
    assert buffer.min_flush_size == 3
    assert buffer.last_flush_size == 0
    # A timer flush below S is a real release and lowers the floor.
    buffer.add("late")
    loop.run()
    assert buffer.min_flush_size == 1


def test_layer_keys_fingerprint_is_stable_and_key_dependent(factory):
    keys, other = factory.layer_keys(), factory.layer_keys()
    assert keys.fingerprint == keys.fingerprint
    assert keys.fingerprint != other.fingerprint
    assert len(keys.fingerprint) == 16
    # Derived from the public modulus only: swapping the symmetric key
    # leaves the digest unchanged.
    rekeyed = type(keys)(
        private_key=keys.private_key, symmetric_key=other.symmetric_key
    )
    assert rekeyed.fingerprint == keys.fingerprint


# -- coordinator drill (mini stack, no faults) -------------------------


def _mini_stack(seed=23, shuffle_size=0, **config_overrides):
    from repro.context import Deployment, SimContext
    from repro.lrs.service import HarnessService
    from repro.proxy.config import PProxConfig

    ctx = SimContext.fresh(seed)
    harness = HarnessService(loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=3)
    harness.engine.trainer.llr_threshold = 0.0
    deployment = Deployment.build(
        ctx=ctx,
        config=PProxConfig(shuffle_size=shuffle_size, **config_overrides),
        lrs_picker=harness.pick_frontend,
    )
    client = deployment.client()
    return ctx, harness, deployment.service, client


def _coordinator(ctx, harness, service, **overrides):
    options = dict(
        loop=ctx.loop,
        service=service,
        layer="UA",
        store=harness.engine.store,
        provider=ctx.resolved_provider(),
        factory=KeyFactory(
            rsa_bits=1024,
            rng_int=ctx.rng.int_fn("rot"),
            rng_bytes=ctx.rng.bytes_fn("rot-b"),
        ),
        batch_size=4,
        tick_interval=0.05,
        retire_grace=0.2,
    )
    options.update(overrides)
    return RotationCoordinator(**options)


def test_coordinator_retires_and_rekeys_the_store():
    ctx, harness, service, client = _mini_stack()
    for user, item in [("a", "i1"), ("a", "i2"), ("b", "i1"), ("c", "i3")]:
        client.post(user, item)
    ctx.loop.run()
    old_users = {event.user for event in harness.engine.store.events}

    coordinator = _coordinator(ctx, harness, service, on_cutover=harness.train)
    coordinator.start(ctx.loop.now)
    ctx.loop.run()

    assert coordinator.completed
    assert coordinator.state == "retired"
    assert (coordinator.old_epoch, coordinator.new_epoch) == (0, 1)
    assert coordinator.progress_ratio == 1.0
    assert coordinator.rekeyer.users_rekeyed == 4
    new_users = {event.user for event in harness.engine.store.events}
    assert new_users.isdisjoint(old_users)
    # The deployment still serves: live clients read material live, so
    # a post after retirement lands under the new epoch.
    done = []
    client.post("a", "i9", on_complete=done.append)
    ctx.loop.run()
    assert done[0].ok
    assert epoch_window_of(service.ua_instances[0].enclave) is None


def test_coordinator_pauses_on_dead_instance_and_resumes():
    ctx, harness, service, client = _mini_stack(seed=29)
    for user, item in [("a", "i1"), ("b", "i2")] * 4:
        client.post(user, item)
    ctx.loop.run()

    coordinator = _coordinator(ctx, harness, service, batch_size=1)
    coordinator.start(ctx.loop.now)
    victim = service.ua_instances[0]
    # Kill the rotating instance shortly after the announce, restart it
    # a little later — mirroring what the fault supervisor does.
    ctx.loop.schedule(0.12, victim.fail)
    ctx.loop.schedule(0.6, lambda: service.restart_instance(victim))
    ctx.loop.run()

    assert coordinator.completed
    assert coordinator.pauses >= 1
    assert coordinator.pause_reasons.get("instance_down", 0) >= 1
    # The restarted enclave was re-provisioned at the current
    # generation and still holds the open-window slots it needs.
    assert service.provisioner.verify_generation(victim.enclave)


def test_coordinator_state_code_reports_paused_index():
    ctx, harness, service, _client = _mini_stack(seed=31)
    coordinator = _coordinator(ctx, harness, service)
    assert coordinator.state_code == ROTATION_STATES.index("idle")
    coordinator.state = "reencrypting"
    coordinator.paused = True
    assert coordinator.state_code == ROTATION_STATES.index("paused")


def test_coordinator_guard_covers_only_active_drill():
    ctx, harness, service, _client = _mini_stack(seed=37)
    coordinator = _coordinator(ctx, harness, service)
    assert not coordinator.guard("UA")  # idle
    coordinator.state = "draining"
    assert coordinator.guard("UA")
    assert not coordinator.guard("IA")
    coordinator.state = "retired"
    assert not coordinator.guard("UA")


def test_coordinator_stop_halts_the_drill():
    ctx, harness, service, client = _mini_stack(seed=41)
    client.post("a", "i1")
    ctx.loop.run()
    coordinator = _coordinator(ctx, harness, service)
    coordinator.start(ctx.loop.now + 0.5)
    coordinator.stop()
    ctx.loop.run()
    assert coordinator.state == "idle"  # the announce never fired


def test_coordinator_start_twice_raises():
    ctx, harness, service, _client = _mini_stack(seed=43)
    coordinator = _coordinator(ctx, harness, service)
    coordinator.start(ctx.loop.now)
    with pytest.raises(RuntimeError, match="already started"):
        coordinator.start(ctx.loop.now)
    coordinator.stop()
    ctx.loop.run()


# -- the shared hold-the-line check (rotation and split / merge) ---------


def _held(alive=True, last_flush=None, sojourn=0.0, buffered=True):
    """The three things :func:`hold_reason` reads off a stage."""
    return SimpleNamespace(
        alive=alive,
        shuffle_buffer=SimpleNamespace(last_flush_size=last_flush) if buffered else None,
        overload_signal=lambda: SimpleNamespace(queue_sojourn=sojourn),
    )


@pytest.mark.parametrize(
    "instances, expected",
    [
        ([_held(), _held(alive=False)], "instance_down"),
        ([_held(last_flush=4), _held(last_flush=3)], "anonymity_floor"),
        # A crash-drain releases nothing: a last flush of 0 is below S,
        # not "no flush yet" (which is None).
        ([_held(last_flush=0)], "anonymity_floor"),
        ([_held(last_flush=4, sojourn=OVERLOAD_HOLD_SOJOURN + 0.01)], "overload"),
        ([_held(last_flush=4, sojourn=OVERLOAD_HOLD_SOJOURN), _held(), _held(buffered=False)], None),
        # Precedence: a down instance outranks a thin flush outranks overload.
        ([_held(alive=False, last_flush=1, sojourn=9.0)], "instance_down"),
        ([_held(last_flush=1, sojourn=9.0)], "anonymity_floor"),
        ([], None),
    ],
)
def test_hold_reason_over_its_three_signals(instances, expected):
    assert hold_reason(iter(instances), 4) == expected


def test_hold_reason_has_no_floor_without_shuffling():
    # S <= 1 is "shuffling off": any flush size is a full batch.
    assert hold_reason([_held(last_flush=0)], 1) is None


def test_hold_the_line_books_one_event_per_edge():
    emitted = []

    class Operation(HoldTheLine):
        _emit = staticmethod(emitted.append)

    op = Operation()
    verdicts = [
        op._hold(reason, {"event": "paused", "reason": reason}, {"event": "resumed"})
        for reason in (None, "overload", "instance_down", None, None, "overload")
    ]
    assert verdicts == [True, False, False, True, True, False]
    assert [event["event"] for event in emitted] == ["paused", "resumed", "paused"]
    assert emitted[0]["reason"] == "overload"  # the reason at the edge, not the latest
    assert (op.paused, op.pause_reason, op.pauses) == (True, "overload", 2)
    assert op.pause_reasons == {"overload": 2}


# -- cluster integration: stale-generation readmission + scaling guard --


def test_health_monitor_reprovisions_stale_generation_before_readmit():
    from repro.cluster.health import HealthMonitor

    ctx, harness, service, _client = _mini_stack(seed=47)
    monitor = HealthMonitor(loop=ctx.loop, service=service, interval=0.1)
    monitor.start()
    victim = service.ua_instances[0]
    victim.fail()
    ctx.loop.run_until(ctx.loop.now + 0.3)
    assert victim.name in monitor.ejected

    service.restart_instance(victim)
    # An announce the restarted enclave missed: its recorded generation
    # is now stale, so readmission must re-provision first.
    service.provisioner.key_generation += 1
    ctx.loop.run_until(ctx.loop.now + 0.3)
    monitor.stop()
    ctx.loop.run()

    assert victim.name in monitor.readmitted
    assert monitor.stale_generation_blocks == 1
    assert service.provisioner.verify_generation(victim.enclave)
    assert service.ua_balancer.contains(victim)


def test_autoscaler_defers_scale_down_while_rotating():
    from repro.cluster.autoscaler import ElasticScaler

    ctx, harness, service, _client = _mini_stack(
        seed=53, ua_instances=2, ia_instances=2
    )
    scaler = ElasticScaler(
        loop=ctx.loop,
        service=service,
        low_rps=10_000.0,  # idle traffic: both layers want to shrink
        interval=0.1,
        min_instances=1,
        rotation_guard=lambda layer: layer == "UA",
    )
    ua_before = len(service.ua_instances)
    scaler.start()
    ctx.loop.run_until(ctx.loop.now + 0.15)
    scaler.stop()
    ctx.loop.run()
    assert len(service.ua_instances) == ua_before  # deferred
    assert scaler.deferred_scale_downs >= 1
    actions = {decision.action for decision in scaler.decisions}
    assert "scale-down-deferred" in actions
