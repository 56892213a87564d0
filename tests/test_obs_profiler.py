"""Virtual-time profiler tests: deterministic attribution across both
simnet engines, causal-stack collapse, merge/render helpers, and full
delegation to the wrapped loop."""

import json
from pathlib import Path

from repro.obs.profiler import (
    ProfiledLoop,
    profile_snapshot,
    render_folded,
    write_profile,
)
from repro.simnet.clock import EventLoop
from tests.oracles.heap_event_loop import HeapEventLoop


def drive_workload(loop):
    """A small causal workload: a self-scheduling pump that fans out."""

    done = []

    def work():
        done.append(loop.now)

    def pump(remaining):
        loop.schedule(0.25, work)
        if remaining > 1:
            loop.schedule(0.5, lambda: pump(remaining - 1))

    loop.schedule(0.0, lambda: pump(4))
    loop.run()
    return done


def test_profile_is_identical_across_engines():
    calendar = ProfiledLoop(EventLoop())
    reference = ProfiledLoop(HeapEventLoop())
    assert drive_workload(calendar) == drive_workload(reference)
    assert profile_snapshot(calendar) == profile_snapshot(reference)


def test_profile_is_identical_across_same_workload_runs(tmp_path):
    paths = []
    for label in ("a", "b"):
        loop = ProfiledLoop(EventLoop())
        drive_workload(loop)
        paths.append(write_profile(loop, str(tmp_path / label)))
    first = (tmp_path / "a" / "profile.json").read_bytes()
    second = (tmp_path / "b" / "profile.json").read_bytes()
    assert first == second
    assert (tmp_path / "a" / "profile.folded").read_bytes() == (
        tmp_path / "b" / "profile.folded"
    ).read_bytes()
    # The wall-clock meta exists but is never part of the diffable set.
    assert (tmp_path / "a" / "profile_meta.json").exists()
    assert set(paths[0]) == {"profile", "folded", "meta"}


def test_self_scheduling_chains_collapse_to_one_frame():
    loop = ProfiledLoop(EventLoop())
    ticks = []

    def tick():
        ticks.append(loop.now)
        if len(ticks) < 50:
            loop.schedule(0.1, tick)

    loop.schedule(0.1, tick)
    loop.run()
    assert len(ticks) == 50
    tick_keys = [key for key in loop.sites if "tick" in key]
    # One collapsed stack, not 50 nested frames.
    assert len(tick_keys) == 1
    assert loop.sites[tick_keys[0]][0] == 50
    assert tick_keys[0].count(";") == 0


def test_virtual_delay_is_the_edge_cost():
    loop = ProfiledLoop(EventLoop())
    loop.schedule(1.5, lambda: None)
    loop.run()
    [record] = loop.sites.values()
    assert record[0] == 1
    assert record[1] == 1.5  # fire time minus schedule time


def test_max_depth_bounds_runaway_stacks():
    import functools

    loop = ProfiledLoop(EventLoop(), max_depth=3)

    # Alternating labels defeat the self-scheduling collapse, so the
    # stack would grow one frame per hop without the depth bound.
    def alpha(n):
        if n > 0:
            loop.schedule(0.1, functools.partial(beta, n))

    def beta(n):
        loop.schedule(0.1, functools.partial(alpha, n - 1))

    loop.schedule(0.0, functools.partial(alpha, 8))
    loop.run()
    deepest = max(key.count(";") + 1 for key in loop.sites)
    assert deepest == 3


def test_render_folded_emits_sorted_collapsed_stacks():
    loop = ProfiledLoop(EventLoop())
    drive_workload(loop)
    snapshot = profile_snapshot(loop)
    folded = render_folded(snapshot)
    assert folded.endswith("\n")
    lines = folded.strip().splitlines()
    assert lines == sorted(lines)
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0
    # Round-trips as valid JSON-compatible data too.
    json.loads(json.dumps(snapshot))


def test_profiled_loop_delegates_the_full_engine_api():
    inner = EventLoop()
    loop = ProfiledLoop(inner)
    fired = []
    loop.schedule(2.0, lambda: fired.append("schedule"))
    loop.post(0.5, lambda: fired.append("post"))
    loop.post_at(0.75, lambda: fired.append("post_at"))
    assert loop.now == inner.now == 0.0
    assert loop.pending == 3
    loop.run_until(1.0)
    assert fired == ["post", "post_at"]
    loop.run()
    assert fired == ["post", "post_at", "schedule"]
    assert loop.now == 2.0
    assert loop.events_processed == inner.events_processed


GOLDEN_LABELS = Path(__file__).parent / "golden" / "obs_profile_labels.txt"


def obs_profile_labels() -> str:
    r"""The distinct frame labels of ``obs/profile.folded``, one a line.

    Labels are the ``__qualname__``s of scheduled callbacks, so renaming
    a hot-path closure (or turning a lambda into a ``def``) rewrites
    every stack of the artifact.  CI compares two processes of one
    tree, which cannot see that; this golden makes it a reviewed diff.
    After an intended rename, regenerate from the repository root::

        PYTHONPATH=src python -c "from tests.test_obs_profiler import obs_profile_labels as \
        labels; print(labels(), end='')" > tests/golden/obs_profile_labels.txt
    """
    from repro.obs.smoke import run_obs_scenario

    folded = render_folded(profile_snapshot(run_obs_scenario().loop))
    labels = {
        frame
        for line in folded.splitlines()
        for frame in line.rsplit(" ", 1)[0].split(";")
    }
    return "".join(f"{label}\n" for label in sorted(labels))


def test_obs_scenario_frame_labels_match_the_golden_file():
    assert obs_profile_labels().splitlines() == GOLDEN_LABELS.read_text().splitlines()
