"""Event primitives for the discrete-event simulation engine.

The engine (:mod:`repro.sim.engine`) dispatches :class:`Event` instances in
nondecreasing time order.  Its heap holds ``(time, seq, event)`` tuples, so
ordering is a C-level comparison of floats and ints; ``seq`` is a
monotonically increasing sequence number assigned at scheduling time and
unique per simulator, so ties never reach the event itself and two runs
with the same seed and the same scheduling order produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events define no ordering: the engine keys its heap on
    ``(time, seq)`` tuples and keeps the event as the payload.  Keyword
    arguments are bound into ``callback`` (``functools.partial``) by the
    engine when a caller passes any, so dispatch is ``callback(*args)``.
    """

    __slots__ = ("time", "seq", "callback", "args", "label", "cancelled",
                 "span", "owner", "handle")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple = (),
                 label: str = "", span: Optional[int] = None,
                 owner: Optional[Any] = None,
                 handle: Optional[Any] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        #: Causal span current when the event was scheduled; the engine
        #: restores it around dispatch (telemetry only, never traced).
        self.span = span
        #: Owning simulator while the event sits in the heap; cancellation
        #: reports back to it so live/cancelled counts stay O(1)-exact.
        #: The engine disowns the event once it leaves the heap.
        self.owner = owner
        #: Re-armable timer handle backing this entry, or None for plain
        #: events (see :class:`repro.sim.engine.TimerHandle`).
        self.handle = handle

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, seq={self.seq!r}, "
                f"label={self.label!r}, cancelled={self.cancelled!r})")

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is O(1); the heap entry is lazily discarded (and the
        owning simulator's cancelled-pending count updated, which may
        trigger a heap compaction).
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._note_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled


@dataclass
class TraceRecord:
    """One structured record in the simulation trace log."""

    time: float
    category: str
    node: Optional[int]
    detail: dict

    def matches(self, category: Optional[str] = None,
                node: Optional[int] = None) -> bool:
        """Return True when the record matches the given filters."""
        if category is not None and self.category != category:
            return False
        if node is not None and self.node != node:
            return False
        return True
