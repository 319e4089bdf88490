"""The discrete-event simulation engine.

A single :class:`Simulator` owns the virtual clock, the event heap, the
per-subsystem random streams and the trace log.  Everything in the
reproduction — radios, motes, protocol timers, moving targets — schedules
work through this object, which makes whole-system runs deterministic for a
given seed.

Scheduler
---------
The engine is *cancellation-aware*: EnviroTrack's group management is
timer-dominated (every heartbeat kicks receive/wait watchdogs), so at
scale most heap entries are lazily-cancelled garbage.  The default
``scheduler="lazy"`` keeps the engine fast under that churn:

* a live-event counter makes :meth:`pending` O(1);
* :meth:`peek_time` lazily discards cancelled heap heads instead of
  scanning (let alone sorting) the heap;
* the heap is compacted when cancelled entries exceed a configurable
  fraction of it;
* :class:`TimerHandle` re-arms watchdog/periodic timers by mutating one
  heap entry's deadline instead of cancel-and-reschedule.

``Simulator(scheduler="heap")`` keeps the original cancel-and-reschedule
path for differential testing; both schedulers produce byte-identical
traces (see ``docs/ENGINE.md`` and the scheduler equivalence suite).

Example
-------
>>> sim = Simulator(seed=7)
>>> fired = []
>>> _ = sim.schedule(2.0, fired.append, 'b')
>>> _ = sim.schedule(1.0, fired.append, 'a')
>>> sim.run(until=10.0)
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from ..telemetry.profiler import EventLoopProfiler
from ..telemetry.registry import MetricsRegistry, NullRegistry
from ..telemetry.spans import NullSpanTracker, SpanTracker
from .events import Event, TraceRecord
from .rng import RandomStreams

#: Supported scheduler strategies.  ``"lazy"`` (default) is the
#: cancellation-aware scheduler; ``"heap"`` is the original
#: cancel-and-reschedule path, kept for differential testing.
SCHEDULER_MODES = ("lazy", "heap")

#: Compact once cancelled entries exceed this fraction of the heap…
DEFAULT_COMPACT_RATIO = 0.5
#: …but never bother below this many cancelled entries.
DEFAULT_COMPACT_MIN = 64

#: One heap entry: ``(time, seq, event)``.  ``seq`` is unique, so heap
#: comparisons never fall through to the event.
HeapEntry = Tuple[float, int, Event]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class TimerHandle:
    """One re-armable timer slot owned by :class:`TimerService`.

    A handle owns **at most one** heap entry at a time (``event``).  Its
    authoritative firing point is ``(deadline, seq)``; the heap key of its
    entry (mirrored in ``event.time``/``event.seq``) may lag behind after
    in-place re-arms.  The engine reconciles on pop: an entry that is no
    longer ``handle.event`` is stale garbage; an entry whose key trails
    the handle's is re-pushed under the true ``(deadline, seq)``; a
    matching entry fires.

    Every re-arm consumes one sequence number — exactly like the
    cancel-and-reschedule it replaces — so tie-breaking, and therefore
    the whole trace, is byte-identical across schedulers.
    """

    __slots__ = ("callback", "label", "deadline", "seq", "span", "event")

    def __init__(self, callback: Callable[[], Any], label: str) -> None:
        self.callback = callback
        self.label = label
        self.deadline = 0.0
        self.seq = -1
        self.span: Optional[int] = None
        self.event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self.event is not None


def _catch_up(event: Event, handle: TimerHandle) -> HeapEntry:
    """Move a deferred timer entry to its handle's true key."""
    event.time = deadline = handle.deadline
    event.seq = seq = handle.seq
    event.span = handle.span
    return (deadline, seq, event)


class TimerService:
    """Arms, re-arms and cancels :class:`TimerHandle` slots.

    Under the lazy scheduler a re-arm of an already-armed handle is three
    attribute writes and a sequence-number bump — no allocation, no heap
    operation.  Under ``scheduler="heap"`` every arm falls back to the
    original cancel-and-reschedule so the two modes stay differentially
    comparable.
    """

    def __init__(self, sim: "Simulator", rearm: bool) -> None:
        self._sim = sim
        self._rearm = rearm

    def create(self, callback: Callable[[], Any],
               label: str = "timer") -> TimerHandle:
        """Allocate an unarmed handle for ``callback``."""
        return TimerHandle(callback, label)

    def arm(self, handle: TimerHandle, delay: float) -> None:
        """(Re)arm ``handle`` to fire ``delay`` seconds from now."""
        sim = self._sim
        if delay < 0:
            raise SimulationError(
                f"cannot arm timer {delay!r}s in the past (now={sim._now})")
        if not self._rearm:
            self.cancel(handle)
            handle.event = sim.schedule(delay, self._legacy_fire, handle,
                                        label=handle.label)
            return
        deadline = sim._now + delay
        spans = sim._live_spans
        seq = sim._next_seq()
        handle.deadline = deadline
        handle.seq = seq
        handle.span = None if spans is None else spans.current
        entry = handle.event
        if entry is not None and entry.time <= deadline:
            # Fast path: the pending entry pops no later than the new
            # deadline, so it can catch up lazily at pop time.
            return
        if entry is not None:
            # Shortened deadline: the entry sits too late in the heap to
            # ever catch up — abandon it and push a fresh one.
            handle.event = None
            sim._note_cancelled()
        event = Event(deadline, seq, handle.callback, (), handle.label,
                      handle.span, None, handle)
        handle.event = event
        _heappush(sim._heap, (deadline, seq, event))
        sim._live += 1

    def cancel(self, handle: TimerHandle) -> None:
        """Disarm ``handle``; its heap entry becomes lazy garbage."""
        entry = handle.event
        if entry is None:
            return
        handle.event = None
        if not self._rearm:
            entry.cancel()  # owner callback keeps the counters exact
            return
        self._sim._note_cancelled()

    @staticmethod
    def _legacy_fire(handle: TimerHandle) -> None:
        """heap-mode trampoline: clear the slot, then fire."""
        handle.event = None
        handle.callback()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Each named random stream derives deterministically
        from it (see :class:`repro.sim.rng.RandomStreams`).
    trace_capacity:
        Maximum number of retained trace records (oldest dropped first);
        ``None`` retains everything.
    telemetry:
        When True (default) the simulator owns a live
        :class:`~repro.telemetry.registry.MetricsRegistry` (``.metrics``)
        and :class:`~repro.telemetry.spans.SpanTracker` (``.spans``).
        When False both are null objects that accept every call and
        record nothing.  Telemetry is pure side-state either way: the
        event order, RNG streams and trace — hence ``trace_digest`` —
        are identical for both settings.
    scheduler:
        ``"lazy"`` (default) enables in-place timer re-arms and heap
        compaction; ``"heap"`` keeps the original cancel-and-reschedule
        path.  Traces are byte-identical across both.
    compact_ratio / compact_min:
        Lazy-scheduler compaction trigger: the heap is rebuilt without
        garbage once cancelled entries exceed ``compact_ratio`` of the
        heap *and* number at least ``compact_min``.
    """

    def __init__(self, seed: int = 0,
                 trace_capacity: Optional[int] = None,
                 telemetry: bool = True,
                 scheduler: str = "lazy",
                 compact_ratio: float = DEFAULT_COMPACT_RATIO,
                 compact_min: int = DEFAULT_COMPACT_MIN) -> None:
        if scheduler not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler {scheduler!r} "
                             f"(expected one of {SCHEDULER_MODES})")
        if not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1]: {compact_ratio}")
        self.seed = seed
        self.scheduler = scheduler
        self.compact_ratio = compact_ratio
        self.compact_min = max(1, compact_min)
        self._now = 0.0
        #: ``(time, seq, event)`` entries; mutated in place only, since
        #: ``run()`` holds a local alias to the list.
        self._heap: List[HeapEntry] = []
        #: Tie-breaking sequence numbers: one per schedule and per arm.
        self._next_seq = itertools.count().__next__
        self._running = False
        self._stopped = False
        #: Scheduled, non-cancelled events (kept exact on every push,
        #: pop, cancel and re-arm, so ``pending()`` is O(1)).
        self._live = 0
        #: Cancelled/stale entries still sitting in the heap.
        self._cancelled = 0
        self.compactions = 0
        self.rng = RandomStreams(seed)
        self.trace_capacity = trace_capacity
        self.trace: Deque[TraceRecord] = deque(maxlen=trace_capacity)
        self._events_fired = 0
        self.telemetry_enabled = telemetry
        if telemetry:
            self.metrics = MetricsRegistry()
            self.spans = SpanTracker(clock=lambda: self._now)
        else:
            self.metrics = NullRegistry()
            self.spans = NullSpanTracker()
        # Hot-path alias: the event loop touches span context on every
        # schedule and dispatch, so it branches on one None check and
        # plain attribute access instead of calling through self.spans.
        self._live_spans: Optional[SpanTracker] = \
            self.spans if telemetry else None
        self._trace_counter = self.metrics.counter(
            "repro_trace_records_total",
            "Trace records written, by category.", ("category",))
        self._heap_gauge = self.metrics.gauge(
            "repro_sim_heap_size",
            "Event-heap entries, including lazily-cancelled garbage.")
        self._cancelled_gauge = self.metrics.gauge(
            "repro_sim_cancelled_pending",
            "Cancelled/stale entries awaiting lazy discard or compaction.")
        self._compactions_counter = self.metrics.counter(
            "repro_sim_compactions_total",
            "Heap compactions (garbage-triggered rebuilds).")
        self.timers = TimerService(self, rearm=(scheduler == "lazy"))
        self._profiler: Optional[EventLoopProfiler] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_fired

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Optional[EventLoopProfiler]:
        """The attached event-loop profiler, or None."""
        return self._profiler

    def enable_profiler(self) -> EventLoopProfiler:
        """Attach (or return the already attached) event-loop profiler.

        Profiling measures host wall time only; it never touches
        simulated time, RNG or the trace.
        """
        if self._profiler is None:
            self._profiler = EventLoopProfiler()
        return self._profiler

    def disable_profiler(self) -> None:
        """Detach the profiler (its accumulated data is discarded)."""
        self._profiler = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, label: str = "", **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds.

        Returns the :class:`Event`, which may be cancelled.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay!r}s in the past (now={self._now})")
        if kwargs:
            callback = partial(callback, **kwargs)
        when = self._now + delay
        seq = self._next_seq()
        spans = self._live_spans
        event = Event(when, seq, callback, args, label,
                      None if spans is None else spans.current, self)
        _heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any, label: str = "", **kwargs: Any) -> Event:
        """Schedule ``callback`` at absolute simulation time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r} before now={self._now}")
        if kwargs:
            callback = partial(callback, **kwargs)
        seq = self._next_seq()
        spans = self._live_spans
        event = Event(when, seq, callback, args, label,
                      None if spans is None else spans.current, self)
        _heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any,
                  label: str = "", **kwargs: Any) -> Event:
        """Schedule ``callback`` at the current time (after pending events
        at this time that were scheduled earlier)."""
        return self.schedule(0.0, callback, *args, label=label, **kwargs)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping & compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """One live heap entry just became garbage (cancel or stale re-arm)."""
        self._live -= 1
        self._cancelled += 1
        if (self.scheduler == "lazy"
                and self._cancelled >= self.compact_min
                and self._cancelled > self.compact_ratio * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without garbage entries.

        Trace-neutral: the surviving entries' ``(time, seq)`` keys are
        unchanged (deferred timer entries are normalized to their true
        deadline, where they would have ended up anyway), so pop order —
        and therefore the trace — is identical with or without
        compaction.
        """
        heap = self._heap
        live: List[HeapEntry] = []
        for entry in heap:
            event = entry[2]
            handle = event.handle
            if handle is not None:
                if event is handle.event:
                    live.append(_catch_up(event, handle))
            elif not event.cancelled:
                live.append(entry)
        heapq.heapify(live)
        # In place: a running ``run()`` holds ``heap`` as a local.
        heap[:] = live
        self._cancelled = 0
        self.compactions += 1
        self._compactions_counter.inc()
        self._publish_engine_metrics()

    def _publish_engine_metrics(self) -> None:
        """Refresh the heap gauges (called on compaction and run exit)."""
        self._heap_gauge.set(len(self._heap))
        self._cancelled_gauge.set(self._cancelled)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next fireable event, reconciling lazy heap entries.

        Discards cancelled/stale heads, re-pushes timer entries whose
        handle's deadline moved later, and returns None at quiescence or
        when the next firing lies strictly after ``until``.  :meth:`run`
        inlines the same loop.
        """
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if until is not None and time > until:
                # A deferred timer entry's stale time only *understates*
                # its true deadline, so crossing the horizon here is
                # definitive for every entry kind.
                return None
            _heappop(heap)
            handle = event.handle
            if handle is not None:
                if event is not handle.event:
                    self._cancelled -= 1  # stale slot: lazily discarded
                    continue
                if time != handle.deadline or seq != handle.seq:
                    # Re-armed in place: catch up to the true deadline.
                    _heappush(heap, _catch_up(event, handle))
                    continue
                handle.event = None  # fires now; callback may re-arm
            elif event.cancelled:
                self._cancelled -= 1
                continue
            else:
                event.owner = None
            self._live -= 1
            return event
        return None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Dispatch events until the horizon, the event budget, or quiescence.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is advanced to ``until``.  ``None`` runs to quiescence.
        max_events:
            Safety valve for runaway schedules.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        # The loop below is :meth:`_pop_next` plus :meth:`_dispatch`,
        # inlined: it is the simulator's innermost loop.
        heap = self._heap
        spans = self._live_spans
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        fired = 0
        try:
            while heap and not self._stopped and fired < budget:
                time, seq, event = heap[0]
                if time > horizon:
                    break  # see _pop_next: stale timer keys only understate
                _heappop(heap)
                handle = event.handle
                if handle is not None:
                    if event is not handle.event:
                        self._cancelled -= 1
                        continue
                    if time != handle.deadline or seq != handle.seq:
                        _heappush(heap, _catch_up(event, handle))
                        continue
                    handle.event = None
                elif event.cancelled:
                    self._cancelled -= 1
                    continue
                else:
                    event.owner = None
                self._live -= 1
                self._now = time
                if self._profiler is not None:
                    self._dispatch(event)
                elif spans is None:
                    event.callback(*event.args)
                else:
                    previous = spans.current
                    spans.current = event.span
                    try:
                        event.callback(*event.args)
                    finally:
                        spans.current = previous
                self._events_fired += 1
                fired += 1
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._publish_engine_metrics()

    def step(self) -> Optional[Event]:
        """Dispatch exactly one (non-cancelled) event; return it or None.

        Shares :meth:`run`'s semantics: calling it from inside an event
        handler raises :class:`SimulationError` instead of corrupting the
        in-progress dispatch, and it clears a pending :meth:`stop` flag
        the way a fresh ``run()`` would.
        """
        if self._running:
            raise SimulationError("step() is not reentrant")
        self._running = True
        self._stopped = False
        try:
            event = self._pop_next()
            if event is None:
                return None
            self._now = event.time
            self._dispatch(event)
            self._events_fired += 1
            return event
        finally:
            self._running = False

    def _dispatch(self, event: Event) -> None:
        """Fire one event inside its causal span, optionally profiled."""
        spans = self._live_spans
        profiler = self._profiler
        if spans is None:
            if profiler is None:
                event.callback(*event.args)
                return
            started = _time.perf_counter()
            try:
                event.callback(*event.args)
            finally:
                profiler.note(event.label,
                              _time.perf_counter() - started)
            return
        previous = spans.current
        spans.current = event.span
        if profiler is None:
            try:
                event.callback(*event.args)
            finally:
                spans.current = previous
            return
        started = _time.perf_counter()
        try:
            event.callback(*event.args)
        finally:
            profiler.note(event.label, _time.perf_counter() - started)
            spans.current = previous

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events — O(1)."""
        return self._live

    def cancelled_pending(self) -> int:
        """Cancelled/stale entries still occupying the heap — O(1)."""
        return self._cancelled

    def heap_size(self) -> int:
        """Total heap entries, garbage included — O(1)."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None when quiescent.

        Lazily discards cancelled heads and normalizes re-armed timer
        entries while peeking, so repeated peeks under cancellation
        churn amortize to O(log n) instead of the O(n log n) a
        sort-based scan would cost.
        """
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            handle = event.handle
            if handle is not None:
                if event is not handle.event:
                    _heappop(heap)
                    self._cancelled -= 1
                    continue
                if time != handle.deadline or seq != handle.seq:
                    _heappop(heap)
                    _heappush(heap, _catch_up(event, handle))
                    continue
            elif event.cancelled:
                _heappop(heap)
                self._cancelled -= 1
                continue
            return time
        return None

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def record(self, category: str, node: Optional[int] = None,
               **detail: Any) -> None:
        """Append a structured record to the trace log.

        The trace is a bounded deque when ``trace_capacity`` is set, so
        eviction of the oldest record is O(1) rather than the O(n) a
        list-head delete would cost.
        """
        self.trace.append(TraceRecord(time=self._now, category=category,
                                      node=node, detail=detail))
        self._trace_counter.inc(1.0, category)

    def trace_records(self, category: Optional[str] = None,
                      node: Optional[int] = None) -> Iterable[TraceRecord]:
        """Iterate trace records matching the filters."""
        return (r for r in self.trace if r.matches(category, node))
