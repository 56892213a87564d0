"""Deterministic virtual-time profiler over either simnet engine.

:class:`ProfiledLoop` is a delegating wrapper (both engines use
``__slots__``, so monkey-patching is off the table) that intercepts the
three scheduling entry points it is driven through and wraps every
callback.  Attribution is
by **causal scheduling stack**: when callback A, while executing,
schedules callback B, B's frame stack is A's stack plus B — the chain
of virtual-time causation, which is what a flamegraph of a discrete
event simulator should show (the runtime call stack is always flat:
callbacks fire from the loop's top level).

Two costs are recorded per stack:

* ``calls`` and ``virtual_delay_seconds`` (fire time minus schedule
  time — callbacks are instantaneous in virtual time, so the delay *is*
  the virtual cost of the edge).  Both are functions of the seeded
  event sequence alone: byte-identical across same-seed runs and
  across engines.  They live in ``profile.json`` / ``profile.folded``.
* wall-clock seconds per stack, which depend on the host and are
  written to a separate ``profile_meta.json`` that must never be
  diffed (the ``scale_meta.json`` convention).

Self-scheduling chains (an arrival callback scheduling the next
arrival) would otherwise grow one frame per event; a callback whose
label equals its parent frame reuses the parent stack, keeping such
chains at depth one.  ``max_depth`` bounds everything else.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ProfiledLoop",
    "profile_snapshot",
    "render_folded",
    "write_profile",
]


def _callback_label(callback: Callable[[], None]) -> str:
    """``module:qualname`` frame label for a scheduled callback."""
    target = getattr(callback, "func", callback)  # functools.partial
    target = getattr(target, "__func__", target)  # bound method
    module = getattr(target, "__module__", "") or ""
    qual = (
        getattr(target, "__qualname__", None)
        or getattr(target, "__name__", None)
        or type(target).__name__
    )
    qual = qual.replace(".<locals>", "")
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{qual}" if module else qual


class ProfiledLoop:
    """Event loop wrapper attributing every callback to a causal stack.

    Exposes the engine API the obs scenario drives (``schedule``/
    ``post``/``post_at``/``run``/``run_until``/``now``/``pending``/
    ``events_processed``); nothing else is delegated.
    """

    def __init__(self, inner: Any, max_depth: int = 24) -> None:
        self._inner = inner
        self.max_depth = max_depth
        #: stack key -> [calls, virtual_delay_seconds] (deterministic).
        self.sites: Dict[str, List[float]] = {}
        #: stack key -> wall seconds (host-dependent; meta only).
        self.wall: Dict[str, float] = {}
        self._current: Tuple[str, ...] = ()

    # -- scheduling entry points ----------------------------------------

    def _extend(self, label: str) -> Tuple[str, ...]:
        current = self._current
        if current and current[-1] == label:
            return current  # collapse self-scheduling chains
        if len(current) >= self.max_depth:
            return current
        return current + (label,)

    def _wrap(self, callback: Callable[[], None], scheduled_at: float) -> Callable[[], None]:
        stack = self._extend(_callback_label(callback))
        key = ";".join(stack)

        def profiled() -> None:
            record = self.sites.get(key)
            if record is None:
                record = [0, 0.0]
                self.sites[key] = record
            record[0] += 1
            record[1] += self._inner.now - scheduled_at
            previous = self._current
            self._current = stack
            start = time.perf_counter()
            try:
                callback()
            finally:
                self._current = previous
                self.wall[key] = self.wall.get(key, 0.0) + time.perf_counter() - start

        return profiled

    def schedule(self, delay: float, callback: Callable[[], None]):
        return self._inner.schedule(delay, self._wrap(callback, self._inner.now))

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        self._inner.post(delay, self._wrap(callback, self._inner.now))

    def post_at(self, when: float, callback: Callable[[], None]) -> None:
        self._inner.post_at(when, self._wrap(callback, self._inner.now))

    # -- execution / introspection --------------------------------------

    @property
    def now(self) -> float:
        return self._inner.now

    @property
    def pending(self) -> int:
        return self._inner.pending

    @property
    def events_processed(self) -> int:
        return self._inner.events_processed

    def run_until(self, when: float) -> None:
        self._inner.run_until(when)

    def run(self, max_events: Optional[int] = None) -> None:
        self._inner.run(max_events=max_events)

def profile_snapshot(loop: ProfiledLoop) -> Dict[str, Any]:
    """The deterministic profile artifact as a plain dict."""
    return {
        "events_processed": loop.events_processed,
        "final_virtual_time": loop.now,
        "sites": {
            key: {"calls": record[0], "virtual_delay_seconds": record[1]}
            for key, record in sorted(loop.sites.items())
        },
    }


def render_folded(snapshot: Dict[str, Any]) -> str:
    """Collapsed-stack flamegraph lines (``frame;frame count``)."""
    lines = [
        f"{key} {record['calls']}"
        for key, record in sorted(snapshot["sites"].items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_profile(loop: ProfiledLoop, out_dir: str, basename: str = "profile") -> Dict[str, str]:
    """Write ``profile.json`` + ``profile.folded`` (diffable) and
    ``profile_meta.json`` (wall clock; never diffed).  Returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    snapshot = profile_snapshot(loop)
    json_path = os.path.join(out_dir, f"{basename}.json")
    folded_path = os.path.join(out_dir, f"{basename}.folded")
    meta_path = os.path.join(out_dir, f"{basename}_meta.json")
    with open(json_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(folded_path, "w") as fh:
        fh.write(render_folded(snapshot))
    with open(meta_path, "w") as fh:
        json.dump(
            {"wall_seconds_by_site": dict(sorted(loop.wall.items()))},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return {"profile": json_path, "folded": folded_path, "meta": meta_path}
