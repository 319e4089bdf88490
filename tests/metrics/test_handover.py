"""Unit tests for handover/coherence analysis."""

import pytest

from repro.metrics import analyze_handovers, tracking_coverage
from repro.sim import Simulator


def build_sim(events, until=100.0):
    sim = Simulator()
    for t, category, detail in events:
        detail = dict(detail)
        detail.setdefault("type", "tracker")
        node = detail.pop("node", 0)
        sim.schedule_at(
            t, lambda c=category, n=node, d=detail: sim.record(c, node=n,
                                                               **d))
    sim.run(until=until)
    return sim


def test_single_label_run_is_coherent():
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (1.0, "gm.leader_start", {"label": "L1", "via": "created"}),
        (10.0, "gm.leader_stop", {"label": "L1", "reason": "relinquish"}),
        (10.1, "gm.claim", {"label": "L1", "node": 1}),
        (10.1, "gm.leader_start", {"label": "L1", "via": "claim",
                                   "node": 1}),
    ])
    stats = analyze_handovers(sim, "tracker", grace=2.0)
    assert stats.coherent
    assert stats.labels_created == 1
    assert stats.successful_handovers == 1
    assert stats.handover_success_pct == 100.0
    assert stats.effective_labels() == ["L1"]


def test_persistent_duplicate_label_breaks_coherence():
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (1.0, "gm.leader_start", {"label": "L1", "via": "created"}),
        (20.0, "gm.label_created", {"label": "L2", "node": 5}),
        (20.0, "gm.leader_start", {"label": "L2", "via": "created",
                                   "node": 5}),
    ])
    stats = analyze_handovers(sim, "tracker", grace=2.0)
    assert not stats.coherent
    assert stats.failed_handovers == 1
    assert sorted(stats.effective_labels()) == ["L1", "L2"]


def test_quickly_suppressed_duplicate_is_noise():
    """A spurious label that yields within the grace window does not
    violate coherence — the paper expects such minority leaders."""
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (1.0, "gm.leader_start", {"label": "L1", "via": "created"}),
        (1.1, "gm.label_created", {"label": "L2", "node": 3}),
        (1.1, "gm.leader_start", {"label": "L2", "via": "created",
                                  "node": 3}),
        (1.6, "gm.label_deleted", {"label": "L2", "node": 3}),
        (1.6, "gm.leader_stop", {"label": "L2", "reason": "suppressed",
                                 "node": 3}),
    ])
    stats = analyze_handovers(sim, "tracker", grace=2.0)
    assert stats.coherent
    assert stats.labels_created == 2
    assert stats.effective_labels() == ["L1"]
    assert stats.suppressions == 1


def test_other_context_types_ignored():
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (2.0, "gm.label_created", {"label": "F1", "type": "fire"}),
    ])
    stats = analyze_handovers(sim, "tracker", grace=1.0)
    assert stats.labels_created == 1


def test_takeovers_and_claims_counted():
    sim = build_sim([
        (1.0, "gm.takeover", {"label": "L1"}),
        (2.0, "gm.takeover", {"label": "L1"}),
        (3.0, "gm.claim", {"label": "L1"}),
        (4.0, "gm.yield", {"label": "L1"}),
    ])
    stats = analyze_handovers(sim, "tracker")
    assert stats.takeovers == 2
    assert stats.claims == 1
    assert stats.yields == 1
    assert stats.successful_handovers == 3


def test_open_tenure_extends_to_now():
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (1.0, "gm.leader_start", {"label": "L1", "via": "created"}),
    ], until=50.0)
    stats = analyze_handovers(sim, "tracker", grace=2.0)
    assert stats.label_led_time["L1"] == pytest.approx(49.0)


def test_no_handovers_gives_none_pct():
    sim = build_sim([
        (1.0, "gm.label_created", {"label": "L1"}),
        (1.0, "gm.leader_start", {"label": "L1", "via": "created"}),
    ])
    stats = analyze_handovers(sim, "tracker")
    assert stats.handover_success_pct is None


class TestCoverage:
    def test_full_coverage(self):
        sim = build_sim([
            (0.0, "gm.leader_start", {"label": "L1", "via": "created"}),
        ], until=100.0)
        assert tracking_coverage(sim, "tracker", 10.0, 90.0,
                                 max_gap=1.0) == pytest.approx(1.0)

    def test_gap_reduces_coverage(self):
        sim = build_sim([
            (0.0, "gm.leader_start", {"label": "L1", "via": "created"}),
            (40.0, "gm.leader_stop", {"label": "L1", "reason": "x"}),
            (60.0, "gm.leader_start", {"label": "L2", "via": "created",
                                       "node": 2}),
        ], until=100.0)
        coverage = tracking_coverage(sim, "tracker", 0.0, 100.0,
                                     max_gap=1.0)
        assert coverage == pytest.approx(0.8)

    def test_micro_gaps_bridged(self):
        sim = build_sim([
            (0.0, "gm.leader_start", {"label": "L1", "via": "created"}),
            (50.0, "gm.leader_stop", {"label": "L1", "reason": "x"}),
            (50.5, "gm.leader_start", {"label": "L1", "via": "takeover",
                                       "node": 2}),
        ], until=100.0)
        coverage = tracking_coverage(sim, "tracker", 0.0, 100.0,
                                     max_gap=1.0)
        assert coverage == pytest.approx(1.0)

    def test_no_leaders_zero_coverage(self):
        sim = build_sim([], until=10.0)
        assert tracking_coverage(sim, "tracker", 0.0, 10.0,
                                 max_gap=1.0) == 0.0

    def test_empty_interval_rejected(self):
        sim = build_sim([], until=10.0)
        with pytest.raises(ValueError):
            tracking_coverage(sim, "tracker", 5.0, 5.0, max_gap=1.0)
