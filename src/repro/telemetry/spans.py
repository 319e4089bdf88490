"""Causal span tracing across frames, handlers and scheduled work.

A *span* is one step of a causal story: "node 7 sent a heartbeat", "node 3
handled it", "node 3 replied with a defence".  Spans form trees — a
handler span is a child of the frame span that delivered the triggering
frame, and any frame sent from inside a handler becomes a child of that
handler span.  The tree for a takeover therefore reads like the protocol
narrative: claim frame → receive handlers → defend reply → abort.

Propagation works through two channels:

* **frames** carry ``Frame.span_id`` (assigned at send time, never
  serialized into the trace), so a reception on another node knows its
  cause;
* **scheduled continuations** (CPU task completions, jittered
  rebroadcasts, timer-driven replies) inherit the span that was current
  when :meth:`~repro.sim.engine.Simulator.schedule` was called — the
  engine captures the current span into each :class:`~repro.sim.events.Event`
  and restores it around dispatch.

Like the metrics registry, the tracker is pure side-state: it never draws
randomness, schedules events or writes trace records, so ``trace_digest``
is unaffected by tracing being on or off.  Span ids come from a plain
deterministic counter, so they are reproducible run-to-run as well.

Every span is kept for the whole run, so the store is columnar: one row
per span across a few parallel lists and float arrays, and no Python
object per span.  :class:`SpanRecord` objects are built only when a query
asks for them.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isnan, nan
from typing import Callable, Dict, Iterator, List, Optional, Set


@dataclass
class SpanRecord:
    """One node of a span tree (a query result, built on demand)."""

    span_id: int
    name: str
    node: Optional[int]
    parent_id: Optional[int]
    started_at: float
    ended_at: Optional[float] = None
    frame_ids: List[int] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds the span was open, if it finished."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at


class SpanTracker:
    """Records span trees for one simulation run.

    The tracker holds a *current span* — the causal context of whatever
    code is executing right now.  Instrumentation opens child spans with
    :meth:`span` (or :meth:`start`/:meth:`finish` around a manual swap of
    :attr:`current` on hot paths); the engine moves the context across
    asynchronous gaps with :meth:`swap`.

    Storage is one row per span; span id = row index + 1:

    * ``_names`` — one shared ``str`` per distinct span name;
    * ``_nodes``, ``_parents`` — references to existing ints, or None;
    * ``_starts``, ``_ends`` — ``array('d')``, NaN end = still open;
    * ``_frames``, ``_frame_spans`` — ``array('q')`` pairs, one row per
      :meth:`note_frame` call: the frame id → span id map.

    The children, span → frames and frame → span indexes that queries
    need are built on the first query and extended with the rows added
    since on later ones; recording never touches them.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._interned: Dict[str, str] = {}
        self._names: List[str] = []
        self._nodes: List[Optional[int]] = []
        self._parents: List[Optional[int]] = []
        self._starts = array("d")
        self._ends = array("d")
        self._frames = array("q")
        self._frame_spans = array("q")
        # Lazy query indexes and the row counts they cover.
        self._children: Dict[int, List[int]] = {}
        self._children_rows = 0
        self._span_frames: Dict[int, List[int]] = {}
        self._frame_owner: Dict[int, int] = {}
        self._frame_rows = 0
        #: Span id of the executing causal context, or None.  A plain
        #: attribute (not a property): the engine reads and writes it
        #: around every event dispatch, so it must stay cheap.
        self.current: Optional[int] = None

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def swap(self, span_id: Optional[int]) -> Optional[int]:
        """Set the current span; return the previous one."""
        previous = self.current
        self.current = span_id
        return previous

    @contextmanager
    def activate(self, span_id: Optional[int]) -> Iterator[Optional[int]]:
        """Run a block with ``span_id`` as the current span."""
        previous = self.swap(span_id)
        try:
            yield span_id
        finally:
            self.swap(previous)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(self, name: str, node: Optional[int] = None,
              parent: Optional[int] = None,
              root: bool = False) -> int:
        """Open a span; the parent defaults to the current span.

        Pass ``root=True`` to force a tree root regardless of context
        (e.g. an operation initiated by the experiment script itself).
        """
        if parent is None and not root:
            parent = self.current
        names = self._names
        names.append(self._interned.setdefault(name, name))
        self._nodes.append(node)
        self._parents.append(parent)
        self._starts.append(self._clock())
        self._ends.append(nan)
        return len(names)

    def finish(self, span_id: int) -> None:
        """Close a span at the current simulation time (first close wins;
        unknown ids are ignored)."""
        row = self._row(span_id)
        if row >= 0 and isnan(self._ends[row]):
            self._ends[row] = self._clock()

    @contextmanager
    def span(self, name: str, node: Optional[int] = None,
             parent: Optional[int] = None,
             root: bool = False) -> Iterator[int]:
        """Open a child span, make it current, close it on exit."""
        span_id = self.start(name, node=node, parent=parent, root=root)
        previous = self.swap(span_id)
        try:
            yield span_id
        finally:
            self.swap(previous)
            self.finish(span_id)

    def note_frame(self, span_id: int, frame_id: int) -> None:
        """Associate a transmitted frame with a span (unknown spans are
        ignored; a frame noted twice belongs to the later span)."""
        if self._row(span_id) >= 0:
            self._frames.append(frame_id)
            self._frame_spans.append(span_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _row(self, span_id) -> int:
        """Row index of ``span_id``, or -1 when the store does not hold it."""
        if isinstance(span_id, int) and 0 < span_id <= len(self._names):
            return span_id - 1
        return -1

    def _known_row(self, span_id) -> int:
        row = self._row(span_id)
        if row < 0:
            raise KeyError(f"unknown span {span_id}")
        return row

    def _child_index(self) -> Dict[int, List[int]]:
        children = self._children
        parents = self._parents
        for row in range(self._children_rows, len(parents)):
            parent = parents[row]
            if parent is not None:
                children.setdefault(parent, []).append(row + 1)
        self._children_rows = len(parents)
        return children

    def _frame_index(self) -> Dict[int, List[int]]:
        """Span id → frame ids, in note order (also brings the frame →
        span index up to date)."""
        span_frames = self._span_frames
        owner = self._frame_owner
        frames, frame_spans = self._frames, self._frame_spans
        for row in range(self._frame_rows, len(frames)):
            span_id = frame_spans[row]
            span_frames.setdefault(span_id, []).append(frames[row])
            owner[frames[row]] = span_id
        self._frame_rows = len(frames)
        return span_frames

    def _record(self, row: int) -> SpanRecord:
        span_id = row + 1
        end = self._ends[row]
        return SpanRecord(
            span_id=span_id, name=self._names[row], node=self._nodes[row],
            parent_id=self._parents[row], started_at=self._starts[row],
            ended_at=None if isnan(end) else end,
            frame_ids=list(self._frame_index().get(span_id, ())))

    def get(self, span_id: int) -> SpanRecord:
        return self._record(self._known_row(span_id))

    def __contains__(self, span_id: int) -> bool:
        return self._row(span_id) >= 0

    def __len__(self) -> int:
        return len(self._names)

    def spans(self) -> List[SpanRecord]:
        """Every span, in creation (= id) order."""
        return [self._record(row) for row in range(len(self._names))]

    def roots(self) -> List[SpanRecord]:
        return [self._record(row)
                for row, parent in enumerate(self._parents)
                if parent is None]

    def root_count(self) -> int:
        """How many spans are tree roots (without building records)."""
        return self._parents.count(None)

    def name_counts(self) -> Counter:
        """Spans per name, read straight from the name column."""
        return Counter(self._names)

    def children(self, span_id: int) -> List[SpanRecord]:
        return [self._record(child - 1)
                for child in self._child_index().get(span_id, [])]

    def find(self, name_prefix: str) -> List[SpanRecord]:
        """Spans whose name starts with ``name_prefix``, in id order."""
        return [self._record(row) for row, name in enumerate(self._names)
                if name.startswith(name_prefix)]

    def span_of_frame(self, frame_id: int) -> Optional[int]:
        """The span a frame was sent under, or None."""
        self._frame_index()
        return self._frame_owner.get(frame_id)

    def subtree(self, span_id: int) -> List[int]:
        """Preorder span ids of the tree rooted at ``span_id``."""
        self._known_row(span_id)
        children = self._child_index()
        out: List[int] = []
        stack = [span_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(children.get(current, [])))
        return out

    def ancestors(self, span_id: int) -> List[int]:
        """Span ids from the tree root down to ``span_id`` (inclusive)."""
        path: List[int] = []
        cursor: Optional[int] = span_id
        while cursor is not None:
            path.append(cursor)
            cursor = self._parents[self._known_row(cursor)]
        path.reverse()
        return path

    def _frames_of(self, span_ids: List[int]) -> Set[int]:
        span_frames = self._frame_index()
        frames: Set[int] = set()
        for sid in span_ids:
            frames.update(span_frames.get(sid, ()))
        return frames

    def subtree_frames(self, span_id: int) -> Set[int]:
        """Every frame id sent anywhere in the span's subtree."""
        return self._frames_of(self.subtree(span_id))

    def ancestor_frames(self, span_id: int) -> Set[int]:
        """Every frame id sent on the root→span causal path."""
        return self._frames_of(self.ancestors(span_id))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_tree(self, span_id: int) -> str:
        """Indented text rendering of one span tree (for reports/REPL)."""
        children = self._child_index()
        lines: List[str] = []
        stack = [(span_id, 0)]
        while stack:
            sid, depth = stack.pop()
            record = self._record(self._known_row(sid))
            node = "-" if record.node is None else str(record.node)
            end = ("…" if record.ended_at is None
                   else f"{record.ended_at:.3f}")
            frames = (f" frames={record.frame_ids}"
                      if record.frame_ids else "")
            lines.append(f"{'  ' * depth}{record.name} "
                         f"[span {sid}, node {node}, "
                         f"{record.started_at:.3f}→{end}]{frames}")
            stack.extend((child, depth + 1)
                         for child in reversed(children.get(sid, [])))
        return "\n".join(lines)


class NullSpanTracker:
    """Drop-in tracker used when telemetry is disabled — records nothing.

    Queries answer as a :class:`SpanTracker` holding no spans would:
    empty lists, and ``KeyError`` for any id a query must resolve.
    """

    enabled = False
    current: Optional[int] = None

    def swap(self, span_id: Optional[int]) -> Optional[int]:
        return None

    @contextmanager
    def activate(self, span_id: Optional[int]) -> Iterator[None]:
        yield None

    def start(self, name: str, node: Optional[int] = None,
              parent: Optional[int] = None, root: bool = False) -> None:
        return None

    def finish(self, span_id) -> None:
        pass

    @contextmanager
    def span(self, name: str, node: Optional[int] = None,
             parent: Optional[int] = None,
             root: bool = False) -> Iterator[None]:
        yield None

    def note_frame(self, span_id, frame_id) -> None:
        pass

    def __contains__(self, span_id) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def _unknown(self, span_id):
        raise KeyError(f"unknown span {span_id}")

    get = subtree = ancestors = _unknown
    subtree_frames = ancestor_frames = format_tree = _unknown

    def spans(self) -> List[SpanRecord]:
        return []

    def roots(self) -> List[SpanRecord]:
        return []

    def root_count(self) -> int:
        return 0

    def name_counts(self) -> Counter:
        return Counter()

    def children(self, span_id) -> List[SpanRecord]:
        return []

    def find(self, name_prefix: str) -> List[SpanRecord]:
        return []

    def span_of_frame(self, frame_id) -> Optional[int]:
        return None
