"""Bounded work queue: FIFO handoff between server and workers."""

from __future__ import annotations

from repro.simnet.queueing import ConcurrentQueue


def test_push_then_consume():
    queue = ConcurrentQueue(capacity=4)
    assert queue.push("a")
    assert queue.pop() == "a"
    assert queue.pop() is None


def test_fifo_across_items():
    queue = ConcurrentQueue(capacity=4)
    for item in ("a", "b", "c"):
        queue.push(item)
    assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]


def test_depth_and_counters():
    queue = ConcurrentQueue(capacity=4)
    for item in (1, 2, 3):
        queue.push(item)
    assert queue.depth == 3
    queue.pop()
    assert queue.depth == 2


def test_rng_registry_streams_are_independent():
    from repro.simnet.rng import RngRegistry

    registry = RngRegistry(seed=1)
    a1 = registry.stream("a").random()
    # Drawing from stream b must not perturb stream a's continuation.
    registry.stream("b").random()
    registry2 = RngRegistry(seed=1)
    b1 = registry2.stream("a").random()
    registry2.stream("a").random()  # second draw from a
    assert a1 == b1


def test_rng_registry_is_seed_deterministic():
    from repro.simnet.rng import RngRegistry

    one = RngRegistry(seed=42).stream("x").random()
    two = RngRegistry(seed=42).stream("x").random()
    assert one == two


def test_rng_registry_bytes_and_int_functions():
    from repro.simnet.rng import RngRegistry

    registry = RngRegistry(seed=3)
    assert len(registry.bytes_fn("b")(16)) == 16
    assert 0 <= registry.int_fn("i")(10) < 10


# --- bounded queues + shed policies (overload protection) -------------


def test_tail_drop_refuses_newcomer_at_capacity():
    from repro.simnet.queueing import SHED_TAIL, TailDropPolicy

    shed = []
    queue = ConcurrentQueue(capacity=2, shed_policy=TailDropPolicy(),
                            on_shed=lambda item, reason: shed.append(reason))
    assert queue.push("a")
    assert queue.push("b")
    assert not queue.push("c")
    assert queue.depth == 2
    assert shed == [SHED_TAIL]
    assert queue.pop() == "a"  # survivors keep FIFO order


def test_capacity_without_policy_defaults_to_tail_drop():
    from repro.simnet.queueing import SHED_TAIL

    shed = []
    queue = ConcurrentQueue(capacity=1, on_shed=lambda item, reason: shed.append(reason))
    assert queue.push("a")
    assert not queue.push("b")
    assert shed == [SHED_TAIL]


def test_on_shed_hook_sees_item_and_reason():
    from repro.simnet.queueing import SHED_TAIL, TailDropPolicy

    queue = ConcurrentQueue(capacity=1, shed_policy=TailDropPolicy())
    shed = []
    queue.on_shed = lambda item, reason: shed.append((item, reason))
    queue.push("keep")
    queue.push("drop")
    assert shed == [("drop", SHED_TAIL)]


def test_codel_drops_at_dequeue_after_sustained_sojourn():
    from repro.simnet.queueing import SHED_SOJOURN, CoDelPolicy

    now = [0.0]
    shed = []
    queue = ConcurrentQueue(
        capacity=10,
        shed_policy=CoDelPolicy(target=0.05, interval=0.1),
        clock=lambda: now[0],
        on_shed=lambda item, reason: shed.append(reason),
    )
    for item in ("a", "b", "c"):
        queue.push(item)
    now[0] = 0.2  # every entry's sojourn is now far above target
    # First dequeue only *starts* the above-target streak.
    assert queue.pop() == "a"
    now[0] = 0.4  # streak (started at 0.2) has exceeded the interval:
    # dropping continues until sojourn falls back under target.
    assert queue.pop() is None
    assert shed == [SHED_SOJOURN, SHED_SOJOURN]
    queue.push("fresh")
    assert queue.pop() == "fresh"  # sub-target sojourn clears the streak


def test_codel_streak_resets_when_sojourn_recovers():
    from repro.simnet.queueing import CoDelPolicy

    now = [0.0]
    shed = []
    queue = ConcurrentQueue(
        capacity=10,
        shed_policy=CoDelPolicy(target=0.05, interval=0.1),
        clock=lambda: now[0],
        on_shed=lambda item, reason: shed.append(reason),
    )
    queue.push("slow")
    now[0] = 0.2
    assert queue.pop() == "slow"  # starts the streak
    queue.push("fast")
    assert queue.pop() == "fast"  # sojourn 0 < target: streak cleared
    queue.push("slow-again")
    now[0] = 0.4
    assert queue.pop() == "slow-again"  # new streak, first offender passes
    assert shed == []


def test_on_pop_reports_sojourn_seconds():
    now = [1.0]
    queue = ConcurrentQueue(capacity=4, clock=lambda: now[0])
    sojourns = []
    queue.on_pop = sojourns.append
    queue.push("x")
    now[0] = 1.25
    assert queue.pop() == "x"
    assert sojourns == [0.25]


def test_oldest_sojourn_tracks_head_entry():
    now = [0.0]
    queue = ConcurrentQueue(capacity=4, clock=lambda: now[0])
    assert queue.oldest_sojourn() == 0.0
    queue.push("x")
    now[0] = 0.5
    assert queue.oldest_sojourn() == 0.5


def test_make_shed_policy_by_name_and_unknown():
    import pytest

    from repro.overload import OverloadPolicy

    def shed_policy(name):
        return OverloadPolicy(shed_policy=name).make_ingress_queue("q", lambda: 0.0).shed_policy

    assert shed_policy("tail-drop").name == "tail-drop"
    codel = shed_policy("codel")
    assert codel.name == "codel" and codel.target == 0.05
    assert shed_policy("codel") is not codel  # per-queue CoDel state
    with pytest.raises(ValueError, match="unknown shed policy"):
        shed_policy("front-drop")
