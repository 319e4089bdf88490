"""The tuple-keyed event heap and the flat run loop.

The heap holds ``(time, seq, event)`` tuples and ``run()`` keeps a local
alias to it, so these tests pin what that design has to get right:
compaction from inside a handler mutates the very list the loop pops
from, events carry no per-instance dict or ordering, keyword arguments
still reach the callback, and the profiler can be attached mid-run.
"""

import pytest

from repro.sim import SCHEDULER_MODES, Event, Simulator, WatchdogTimer


def _compacting_program(scheduler):
    """A run whose handlers cancel enough events to force compactions
    while watchdog entries sit deferred in the heap."""
    sim = Simulator(seed=4, scheduler=scheduler,
                    compact_min=8, compact_ratio=0.25)
    log = []
    invariant_ok = []

    def note(tag):
        log.append((tag, sim.now))
        invariant_ok.append(
            sim.heap_size() == sim.pending() + sim.cancelled_pending())

    dogs = [WatchdogTimer(sim, timeout=0.7 + 0.1 * i,
                          callback=lambda i=i: note(f"dog{i}"),
                          label=f"dog{i}")
            for i in range(3)]

    def churn(round_no):
        doomed = [sim.schedule(5.0 + 0.01 * k, note, f"dead{round_no}.{k}")
                  for k in range(30)]
        for dog in dogs[:2]:
            dog.kick()  # defer the pending entries in place
        for event in doomed:
            event.cancel()
        # Scheduled after the compaction: lost if run() popped a stale
        # copy of the heap.
        sim.schedule(0.05, note, f"after{round_no}")
        sim.schedule(0.05, note, f"tie{round_no}")
        note(f"churn{round_no}")
        if round_no < 12:
            sim.schedule(0.2, churn, round_no + 1)

    for dog in dogs:
        dog.kick()
    sim.schedule(0.1, churn, 0)
    sim.run(until=8.0)
    return sim, log, invariant_ok


def test_compaction_inside_run_keeps_pop_order():
    lazy, lazy_log, lazy_ok = _compacting_program("lazy")
    heap, heap_log, _ = _compacting_program("heap")
    assert lazy.compactions > 0
    assert all(lazy_ok)
    assert lazy.heap_size() == lazy.pending() + lazy.cancelled_pending()
    assert lazy_log == heap_log
    assert lazy.events_fired == heap.events_fired
    # Every round's post-compaction events fired, in scheduling order.
    afters = [tag for tag, _ in lazy_log if tag.startswith(("after", "tie"))]
    assert afters == [f"{kind}{n}" for n in range(13)
                      for kind in ("after", "tie")]


def test_events_are_slotted_and_unordered():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert not hasattr(event, "__dict__")
    assert "__lt__" not in vars(Event)
    assert Event.__lt__ is object.__lt__
    with pytest.raises(TypeError):
        _ = event < event


def test_every_heap_entry_is_a_time_seq_event_tuple():
    sim = Simulator(seed=3)
    dog = WatchdogTimer(sim, timeout=1.0, callback=lambda: None,
                        label="dog")
    dog.kick()
    sim.schedule(0.5, dog.kick)  # leaves a deferred timer entry
    sim.schedule(0.2, lambda: None, label="plain").cancel()
    sim.run(until=0.6)
    sim.schedule(2.0, lambda: None)
    assert sim.heap_size() >= 2
    for entry in sim._heap:
        assert type(entry) is tuple and len(entry) == 3
        time, seq, event = entry
        assert type(time) is float
        assert type(seq) is int
        assert isinstance(event, Event)
    seqs = [entry[1] for entry in sim._heap]
    assert len(set(seqs)) == len(seqs)


@pytest.mark.parametrize("scheduler", SCHEDULER_MODES)
def test_keyword_arguments_reach_the_callback(scheduler):
    sim = Simulator(scheduler=scheduler)
    got = []

    def handler(*args, **kwargs):
        got.append((args, kwargs))

    sim.schedule(1.0, handler, 1, key="v", label="kw")
    sim.schedule_at(2.0, handler, key="w")
    sim.schedule(3.0, lambda: sim.call_soon(handler, other=3))
    event = sim.schedule(4.0, handler, 2)
    sim.run()
    assert got == [((1,), {"key": "v"}), ((), {"key": "w"}),
                   ((), {"other": 3}), ((2,), {})]
    assert event.label == ""


def test_profiler_enabled_inside_a_handler_applies_to_the_rest_of_run():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, label="before")
    sim.schedule(2.0, sim.enable_profiler, label="enable")
    sim.schedule(3.0, lambda: None, label="after.a")
    sim.schedule(4.0, lambda: None, label="after.b")
    sim.run()
    profiler = sim.profiler
    assert profiler is not None
    assert "before" not in profiler
    assert "after.a" in profiler and "after.b" in profiler
    assert profiler.events_profiled == 2


def test_profiler_disabled_inside_a_handler_stops_profiling():
    sim = Simulator()
    profiler = sim.enable_profiler()
    sim.schedule(1.0, lambda: None, label="first")
    sim.schedule(2.0, sim.disable_profiler, label="disable")
    sim.schedule(3.0, lambda: None, label="later")
    sim.run()
    assert "first" in profiler and "disable" in profiler
    assert "later" not in profiler
