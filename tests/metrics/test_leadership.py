"""The leadership ledger on hand-built traces: every close rule, and the
analyses that read it."""

import functools

import pytest

from repro.metrics import (Tenure, analyze_handovers, handoff_latencies,
                           leader_tenures, tracking_coverage)
from repro.sim import Simulator


def emit(sim, time, category, node=None, **detail):
    sim.schedule_at(time, functools.partial(sim.record, category,
                                            node=node, **detail))


def lead(sim, time, node, label="L1"):
    emit(sim, time, "gm.leader_start", node=node, type="tracker",
         label=label)


def stop(sim, time, node, label="L1"):
    emit(sim, time, "gm.leader_stop", node=node, type="tracker",
         label=label)


def test_crash_closes_tenure_at_node_fail():
    sim = Simulator()
    lead(sim, 1.0, 0)
    emit(sim, 10.0, "node.fail", node=0)   # a dead leader emits no stop
    sim.run(until=30.0)

    assert leader_tenures(sim.trace, "tracker", sim.now) == [
        Tenure(0, "L1", 1.0, 10.0)]
    assert analyze_handovers(sim, "tracker").label_led_time["L1"] \
        == pytest.approx(9.0)
    assert tracking_coverage(sim, "tracker", 0.0, 30.0, max_gap=1.0) \
        == pytest.approx(9.0 / 30.0)


def test_reboot_then_lead_again_is_a_second_tenure():
    sim = Simulator()
    lead(sim, 1.0, 0)
    emit(sim, 10.0, "node.fail", node=0)
    emit(sim, 15.0, "node.recover", node=0)
    emit(sim, 15.0, "node.reboot", node=0)
    lead(sim, 20.0, 0)
    sim.run(until=30.0)

    assert leader_tenures(sim.trace, "tracker", sim.now) == [
        Tenure(0, "L1", 1.0, 10.0), Tenure(0, "L1", 20.0, 30.0)]
    assert analyze_handovers(sim, "tracker").label_led_time["L1"] \
        == pytest.approx(19.0)
    assert tracking_coverage(sim, "tracker", 0.0, 30.0, max_gap=1.0) \
        == pytest.approx(19.0 / 30.0)
    assert handoff_latencies(sim, "tracker") == pytest.approx([10.0])


def test_unmatched_stop_starts_at_first_retained_record():
    """``trace_capacity`` evicted the start; the stop still closes a
    tenure, dated from the oldest record the trace kept."""
    sim = Simulator(trace_capacity=3)
    lead(sim, 1.0, 0)
    emit(sim, 4.0, "filler", node=5)
    emit(sim, 6.0, "filler", node=5)
    stop(sim, 10.0, 0)
    sim.run(until=20.0)

    assert leader_tenures(sim.trace, "tracker", sim.now) == [
        Tenure(0, "L1", 4.0, 10.0)]
    assert analyze_handovers(sim, "tracker").label_led_time["L1"] \
        == pytest.approx(6.0)


def test_post_crash_gap_is_measured_from_node_fail():
    sim = Simulator()
    lead(sim, 1.0, 0)
    emit(sim, 10.0, "node.fail", node=0)
    lead(sim, 11.2, 1)                     # the takeover
    stop(sim, 20.0, 1)                     # relinquish to node 2
    lead(sim, 20.1, 2)
    sim.run(until=30.0)

    assert handoff_latencies(sim, "tracker") == pytest.approx([1.2, 0.1])


def test_other_types_and_overlaps():
    sim = Simulator()
    lead(sim, 1.0, 0)
    emit(sim, 2.0, "gm.leader_start", node=3, type="fire", label="F1")
    lead(sim, 5.0, 1)                      # overlaps node 0: no gap
    stop(sim, 6.0, 0)
    emit(sim, 7.0, "node.fail", node=3)    # not a tracker leader
    sim.run(until=9.0)

    assert leader_tenures(sim.trace, "tracker", sim.now) == [
        Tenure(0, "L1", 1.0, 6.0), Tenure(1, "L1", 5.0, 9.0)]
    assert handoff_latencies(sim, "tracker") == []
