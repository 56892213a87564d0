"""Span recorder and the wrappers the traced run injects.

The program is single-threaded, so the span that is open when another
opens is its parent: a stack.  Spans stay in memory (four parallel
lists) and are folded into per-name self times when the run ends.  A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans sum to the wall time the
root spans covered and no microsecond is counted twice.

Nothing here touches ``src/``: instances the benchmark builds
(provider, codec, LRS, telemetry hub) get their public methods
replaced by attribute with timed versions, the public entry points of
a few modules and classes are replaced the same way for the life of
the benchmark process, and the event loop (``__slots__``, so no
attributes to replace) gets a delegating wrapper in the style of
``repro.obs.profiler.ProfiledLoop``.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "TimedLoop", "callback_span_name"]


class SpanRecorder:
    """In-memory span store: name, start, end, parent per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._current = -1
        #: Work counted at the same boundaries as the spans (bytes).
        self.counters: Dict[str, int] = {}

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._current)
        self.ends.append(0.0)
        self._current = index
        # Clock read last (and first in close), so the recorder's own
        # bookkeeping falls outside the span it is recording.
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._current = self.parents[index]

    def watch_gc(self) -> None:
        """Record every cyclic-GC pass as a ``python.gc`` span.

        A collection runs inside whichever span happens to allocate the
        container that crosses the threshold; without its own span that
        layer would be charged for it.  ``open``/``close`` allocate no
        GC-tracked object, so a pass never starts inside them.
        """
        running: List[int] = []

        def on_gc(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                running.append(self.open("python.gc"))
            else:
                self.close(running.pop())

        gc.callbacks.append(on_gc)

    def mark(self) -> int:
        """Index the next span will get; delimits a window for :meth:`fold`."""
        return len(self.names)

    def spanned(
        self,
        name: str,
        fn: Callable[..., Any],
        count_bytes: Optional[Callable[[tuple], int]] = None,
    ) -> Callable[..., Any]:
        """*fn* wrapped in a span called *name*.

        *count_bytes*, given the positional arguments, returns how many
        bytes the call processes; they accumulate in ``counters[name]``.
        """
        open_span, close_span, counters = self.open, self.close, self.counters

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        if count_bytes is None:
            return timed

        def counted(*args: Any, **kwargs: Any) -> Any:
            counters[name] = counters.get(name, 0) + count_bytes(args)
            return timed(*args, **kwargs)

        return counted

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        """Replace ``owner.attribute`` (module, class or instance) by a
        timed version recording spans called *name*."""
        setattr(owner, attribute, self.spanned(name, getattr(owner, attribute), **options))

    def fold(self, first: int, last: int) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans ``[first, last)``.

        The window must start and end outside any span (the harness
        marks between ``run_until`` calls), so every parent of a span
        in the window is in the window too.
        """
        calls: Dict[str, int] = {}
        seconds: Dict[str, float] = {}
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for index in range(first, last):
            name = names[index]
            duration = ends[index] - starts[index]
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + duration
            parent = parents[index]
            if parent >= first:
                seconds[names[parent]] -= duration
        return {name: (calls[name], seconds[name]) for name in calls}


#: Closures of these modules only carry a message or a completion to
#: its receiver; the callback's owner is the continuation they hold.
_CARRIERS = ("repro.simnet.network", "repro.simnet.node", "repro.rest.codec")
_CONTINUATIONS = ("on_deliver", "on_complete")

#: Defining module of a scheduled callback -> root span name.  First
#: matching prefix wins.
_CALLBACK_OWNERS = (
    ("repro.proxy.shuffler", "cb.shuffler"),
    ("repro.proxy", "cb.layers"),
    ("repro.client", "cb.client"),
    ("repro.lrs", "cb.lrs"),
    ("repro.workload", "cb.workload"),
    ("repro.telemetry", "cb.telemetry"),
    ("repro.obs", "cb.telemetry"),
    ("repro.simnet", "cb.simnet"),
)


def callback_span_name(callback: Callable[[], None]) -> str:
    """Root span name of a scheduled callback: the layer that owns it.

    A network delivery or node completion is a closure defined in
    ``simnet`` whose only job is to call the continuation the sender
    handed over; ownership follows that continuation (at most a few
    hops: ``Network.send`` -> ``ship`` -> the layer's own lambda).
    """
    fn: Any = callback
    module = ""
    for _ in range(4):
        fn = getattr(fn, "__func__", fn)
        module = getattr(fn, "__module__", None) or ""
        if module not in _CARRIERS:
            break
        closure = getattr(fn, "__closure__", None)
        if not closure:
            break
        for variable, cell in zip(fn.__code__.co_freevars, closure):
            if variable in _CONTINUATIONS:
                fn = cell.cell_contents
                break
        else:
            break
    for prefix, name in _CALLBACK_OWNERS:
        if module.startswith(prefix):
            return name
    return "cb.other"


class TimedLoop:
    """Delegating event-loop wrapper: callbacks become root spans.

    Every scheduled callback is wrapped in a span named after the layer
    that owns it, and every scheduling call is a ``simnet.schedule``
    span, so calendar-queue insertion shows as simnet time wherever it
    is called from.  Wall time spent in ``run``/``run_until`` outside
    the root spans is the engine's own dispatch cost; the harness
    measures it as window wall time minus root span time.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def _wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        name = callback_span_name(callback)
        open_span, close_span = self._recorder.open, self._recorder.close

        def timed() -> None:
            index = open_span(name)
            try:
                callback()
            finally:
                close_span(index)

        return timed

    def _scheduled(self, method: Callable[..., Any], when: float, callback: Callable[[], None]) -> Any:
        wrapped = self._wrap(callback)
        index = self._recorder.open("simnet.schedule")
        try:
            return method(when, wrapped)
        finally:
            self._recorder.close(index)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Any:
        return self._scheduled(self._inner.schedule, delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Any:
        return self._scheduled(self._inner.schedule_at, when, callback)

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        self._scheduled(self._inner.post, delay, callback)

    def post_at(self, when: float, callback: Callable[[], None]) -> None:
        self._scheduled(self._inner.post_at, when, callback)

    @property
    def now(self) -> float:
        return self._inner.now

    @property
    def pending(self) -> int:
        return self._inner.pending

    @property
    def events_processed(self) -> int:
        return self._inner.events_processed

    def __getattr__(self, name: str) -> Any:
        # run / run_until / step / queue_stats and anything else.
        return getattr(self._inner, name)
