"""The columnar span store against a dict-of-records reference model.

:class:`ModelTracker` is the straightforward store — one
:class:`SpanRecord` per span in a dict, eager children lists, a frame →
span dict — and serves as the oracle: random call sequences drive both,
and every query must answer alike.  The memory tests pin what the
columnar layout is for: no Python object and a few machine words per
span.
"""

import gc
import tracemalloc
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.spans import NullSpanTracker, SpanRecord, SpanTracker

#: Span ids at or above this are never created by a test sequence.
UNKNOWN = 1000


class ModelTracker:
    """Reference semantics: one mutable record per span."""

    def __init__(self, clock):
        self.clock = clock
        self.records: Dict[int, SpanRecord] = {}
        self.kids: Dict[int, List[int]] = {}
        self.owner: Dict[int, int] = {}
        self.current: Optional[int] = None

    def swap(self, span_id):
        previous, self.current = self.current, span_id
        return previous

    @contextmanager
    def activate(self, span_id):
        previous = self.swap(span_id)
        try:
            yield span_id
        finally:
            self.swap(previous)

    def start(self, name, node=None, parent=None, root=False):
        if parent is None and not root:
            parent = self.current
        span_id = len(self.records) + 1
        self.records[span_id] = SpanRecord(span_id, name, node, parent,
                                           self.clock())
        if parent is not None:
            self.kids.setdefault(parent, []).append(span_id)
        return span_id

    def finish(self, span_id):
        record = self.records.get(span_id)
        if record is not None and record.ended_at is None:
            record.ended_at = self.clock()

    @contextmanager
    def span(self, name, node=None, parent=None, root=False):
        span_id = self.start(name, node, parent, root)
        previous = self.swap(span_id)
        try:
            yield span_id
        finally:
            self.swap(previous)
            self.finish(span_id)

    def note_frame(self, span_id, frame_id):
        if span_id in self.records:
            self.records[span_id].frame_ids.append(frame_id)
            self.owner[frame_id] = span_id

    def get(self, span_id):
        if span_id not in self.records:
            raise KeyError(span_id)
        return self.records[span_id]

    def subtree(self, span_id):
        out, stack = [], [self.get(span_id).span_id]
        while stack:
            out.append(stack.pop())
            stack.extend(reversed(self.kids.get(out[-1], [])))
        return out

    def ancestors(self, span_id):
        path = [span_id]
        while self.get(path[-1]).parent_id is not None:
            path.append(self.get(path[-1]).parent_id)
        return path[::-1]

    def frames(self, span_ids):
        return {f for sid in span_ids for f in self.get(sid).frame_ids}

    def format_tree(self, span_id, depth=0):
        r = self.get(span_id)
        end = "…" if r.ended_at is None else f"{r.ended_at:.3f}"
        frames = f" frames={r.frame_ids}" if r.frame_ids else ""
        node = "-" if r.node is None else str(r.node)
        lines = [f"{'  ' * depth}{r.name} [span {span_id}, node {node}, "
                 f"{r.started_at:.3f}→{end}]{frames}"]
        lines += [self.format_tree(child, depth + 1)
                  for child in self.kids.get(span_id, [])]
        return "\n".join(lines)


def answer(call):
    """A query's result, or the exception type it raised."""
    try:
        return call()
    except KeyError:
        return KeyError


def assert_same_answers(store: SpanTracker, model: ModelTracker) -> None:
    records = [model.records[sid] for sid in sorted(model.records)]
    assert len(store) == len(records)
    assert store.spans() == records
    assert store.roots() == [r for r in records if r.parent_id is None]
    assert store.root_count() == len(store.roots())
    assert store.name_counts() == {
        name: sum(r.name == name for r in records)
        for name in {r.name for r in records}}
    for prefix in ("", "frame.", "handle", "dir.lookup", "zz"):
        assert store.find(prefix) == [r for r in records
                                      if r.name.startswith(prefix)]
    for frame_id in range(-1, 22):
        assert store.span_of_frame(frame_id) == model.owner.get(frame_id)
    ids = list(range(-2, len(records) + 3)) + [UNKNOWN, UNKNOWN + 7]
    for sid in ids:
        assert (sid in store) == (sid in model.records)
        assert store.children(sid) == [model.records[c]
                                       for c in model.kids.get(sid, [])]
        assert answer(lambda: store.get(sid)) == \
            answer(lambda: model.get(sid))
        assert answer(lambda: store.subtree(sid)) == \
            answer(lambda: model.subtree(sid))
        assert answer(lambda: store.ancestors(sid)) == \
            answer(lambda: model.ancestors(sid))
        assert answer(lambda: store.subtree_frames(sid)) == \
            answer(lambda: model.frames(model.subtree(sid)))
        assert answer(lambda: store.ancestor_frames(sid)) == \
            answer(lambda: model.frames(model.ancestors(sid)))
        assert answer(lambda: store.format_tree(sid)) == \
            answer(lambda: model.format_tree(sid))


span_ids = st.one_of(st.none(), st.integers(min_value=-2, max_value=40))
span_args = st.tuples(
    st.sampled_from(["frame.hb", "frame.claim", "handle.hb", "dir.lookup.t",
                     "x"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    span_ids, st.booleans())
operations = st.lists(st.one_of(
    st.tuples(st.just("start"), span_args),
    st.tuples(st.just("span"), span_args),
    st.tuples(st.just("finish"), st.integers(min_value=-2, max_value=40)),
    st.tuples(st.just("note"), st.tuples(
        st.integers(min_value=-2, max_value=40),
        st.integers(min_value=0, max_value=20))),
    st.tuples(st.just("swap"), span_ids),
    st.tuples(st.just("activate"), span_ids),
    st.tuples(st.just("exit"), st.none()),
    st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=2.0)),
    st.tuples(st.just("check"), st.none()),
), max_size=80)


@given(operations)
@settings(max_examples=150)
def test_columnar_store_matches_reference_model(ops):
    clock = {"t": 0.0}
    store = SpanTracker(clock=lambda: clock["t"])
    model = ModelTracker(clock=lambda: clock["t"])
    open_blocks: List[tuple] = []

    def known(span_id):
        # A parent or context id that is not created yet would later
        # be reused by a new span and could close a cycle, so such
        # ids are moved out of the range a sequence ever creates.
        if span_id is not None and span_id > len(model.records):
            return UNKNOWN + span_id
        return span_id

    for op, arg in ops:
        if op in ("start", "span"):
            name, node, parent, root = arg
            args = (name, node, known(parent), root)
            if op == "start":
                assert store.start(*args) == model.start(*args)
            else:
                inner_store, inner_model = ExitStack(), ExitStack()
                assert inner_store.enter_context(store.span(*args)) == \
                    inner_model.enter_context(model.span(*args))
                open_blocks.append((inner_store, inner_model))
        elif op == "activate":
            inner_store, inner_model = ExitStack(), ExitStack()
            assert inner_store.enter_context(
                store.activate(known(arg))) == \
                inner_model.enter_context(model.activate(known(arg)))
            open_blocks.append((inner_store, inner_model))
        elif op == "exit" and open_blocks:
            for block in open_blocks.pop():
                block.close()
        elif op == "finish":
            store.finish(arg)
            model.finish(arg)
        elif op == "note":
            store.note_frame(*arg)
            model.note_frame(*arg)
        elif op == "swap":
            assert store.swap(known(arg)) == model.swap(known(arg))
        elif op == "tick":
            clock["t"] += arg
        elif op == "check":
            assert_same_answers(store, model)
        assert store.current == model.current
    while open_blocks:
        for block in open_blocks.pop():
            block.close()
    assert store.current == model.current
    assert_same_answers(store, model)


SPANS = 50_000


def build(tracker: SpanTracker, clock: dict) -> None:
    root = tracker.start("root")
    for index in range(SPANS):
        span_id = tracker.start("frame.heartbeat", node=index % 50,
                                parent=root)
        tracker.note_frame(span_id, 10_000 + index)
        clock["t"] += 0.001
        tracker.finish(span_id)


class TestMemory:
    def test_no_tracked_object_per_span(self):
        clock = {"t": 0.0}
        tracker = SpanTracker(clock=lambda: clock["t"])
        gc.collect()
        before = len(gc.get_objects())
        build(tracker, clock)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(tracker) == SPANS + 1

    def test_bytes_per_span(self):
        clock = {"t": 0.0}
        tracker = SpanTracker(clock=lambda: clock["t"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build(tracker, clock)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown / SPANS <= 64
        assert tracker.span_of_frame(10_000 + SPANS - 1) == SPANS + 1


class TestNullTrackerQueries:
    @pytest.mark.parametrize("query", [
        "get", "subtree", "ancestors", "subtree_frames", "ancestor_frames",
        "format_tree"])
    def test_id_queries_raise_like_an_empty_store(self, query):
        with pytest.raises(KeyError, match="unknown span 1"):
            getattr(NullSpanTracker(), query)(1)
        with pytest.raises(KeyError, match="unknown span 1"):
            getattr(SpanTracker(clock=lambda: 0.0), query)(1)

    def test_counts_are_empty(self):
        tracker = NullSpanTracker()
        assert tracker.root_count() == 0
        assert tracker.name_counts() == {}
