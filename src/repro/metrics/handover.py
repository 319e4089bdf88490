"""Context-label coherence and handover analysis (Figures 4, 5, 6).

The paper's definitions (§6.1–6.2):

* a **successful handover** — "the context label successfully follows tank
  location by virtue of leadership changeover from one member node to
  another along the target's path";
* an **unsuccessful handover** — "a new context label is spawned at the new
  tank's location, not realizing that it refers to the same tank", which
  violates context label coherence;
* the **maximum trackable speed** — "the highest target speed at which the
  single group abstraction is maintained", i.e. the highest speed at which
  coherence holds.

For a single-target run, every ``gm.takeover``/``gm.claim`` leader start is
a successful handover, and every ``gm.label_created`` beyond the first is a
spawned duplicate — an unsuccessful one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim import Simulator
from .leadership import leader_tenures


@dataclass(frozen=True)
class HandoverStats:
    """Handover and coherence summary of one single-target run.

    The protocol *expects* short-lived spurious labels — "we allow spurious
    (i.e., minority) leaders to emerge.  These leaders, however, are
    unlikely to gather critical mass and hence will not affect system
    behavior."  Coherence therefore counts **effective** labels only:
    created labels that actually represented the target for longer than a
    suppression grace period.  A duplicate killed by the weight rule within
    a heartbeat or two is a non-event; a duplicate that persists (the tank
    "appearing replicated to the application") is a failed handover.
    """

    labels_created: int
    takeovers: int
    claims: int
    yields: int
    suppressions: int
    #: Cumulative time each label spent with some leader serving it.
    label_led_time: Dict[str, float]
    #: Led time below which a created label counts as suppressed noise.
    grace: float

    def effective_labels(self) -> List[str]:
        return sorted(label for label, led in self.label_led_time.items()
                      if led >= self.grace)

    @property
    def successful_handovers(self) -> int:
        return self.takeovers + self.claims

    @property
    def failed_handovers(self) -> int:
        """Effective duplicate labels spawned for the same target."""
        return max(0, len(self.effective_labels()) - 1)

    @property
    def handover_success_pct(self) -> Optional[float]:
        """Percent of handovers that preserved the label; None when the
        run had no handovers at all."""
        total = self.successful_handovers + self.failed_handovers
        if total == 0:
            return None
        return 100.0 * self.successful_handovers / total

    @property
    def coherent(self) -> bool:
        """Single-group abstraction maintained for the whole run."""
        return len(self.effective_labels()) <= 1


#: Trace categories :func:`analyze_handovers` counts per context type.
_COUNTED = ("gm.label_created", "gm.takeover", "gm.claim", "gm.yield",
            "gm.label_deleted")


def analyze_handovers(sim: Simulator, context_type: str,
                      grace: float = 2.0) -> HandoverStats:
    """Extract handover statistics from a finished run's trace.

    ``grace``: minimum cumulative led time for a created label to count as
    effective; set it to a few heartbeat periods (suppression of an entry
    race completes within roughly one period).
    """
    counts = dict.fromkeys(_COUNTED, 0)
    led_time: Dict[str, float] = {}
    for rec in sim.trace:
        if rec.category in counts \
                and rec.detail.get("type") == context_type:
            counts[rec.category] += 1
            if rec.category == "gm.label_created":
                led_time.setdefault(rec.detail.get("label", ""), 0.0)
    for tenure in leader_tenures(sim.trace, context_type, sim.now):
        led_time[tenure.label] = led_time.get(tenure.label, 0.0) \
            + (tenure.end - tenure.start)
    return HandoverStats(labels_created=counts["gm.label_created"],
                         takeovers=counts["gm.takeover"],
                         claims=counts["gm.claim"],
                         yields=counts["gm.yield"],
                         suppressions=counts["gm.label_deleted"],
                         label_led_time=led_time, grace=grace)


def handoff_latencies(sim: Simulator, context_type: str
                      ) -> List[float]:
    """Per-handover gap between a label's last open tenure closing and
    its next tenure starting (seconds).

    A successor that started while another tenure of the label was still
    open (as during yields) leaves no gap, so it adds no entry.  A
    crashed leader's tenure closes at its ``node.fail``.  Relinquish
    handoffs complete in a claim window; takeover handoffs in roughly the
    receive timeout — this is the latency that bounds the max trackable
    speed in §6.2.
    """
    last_end: Dict[str, float] = {}
    latencies: List[float] = []
    tenures = leader_tenures(sim.trace, context_type, sim.now)
    for tenure in sorted(tenures, key=lambda t: t.start):
        closed = last_end.get(tenure.label)
        if closed is not None and tenure.start >= closed:
            latencies.append(tenure.start - closed)
        last_end[tenure.label] = max(tenure.end, closed or 0.0)
    return latencies


def tracking_coverage(sim: Simulator, context_type: str,
                      start: float, end: float,
                      max_gap: float) -> float:
    """Fraction of [start, end] during which *some* leader served the
    target, judged by gaps between leader tenures.

    Coverage below 1.0 means the entity went unrepresented — e.g. it
    escaped during a takeover, or its leader crashed.
    """
    if end <= start:
        raise ValueError(f"empty interval [{start}, {end}]")
    clipped = [(max(t.start, start), min(t.end, end))
               for t in leader_tenures(sim.trace, context_type, sim.now)
               if min(t.end, end) > max(t.start, start)]
    if not clipped:
        return 0.0
    clipped.sort()
    # Merge tenures, bridging micro-gaps up to max_gap (handover churn).
    merged = [list(clipped[0])]
    for lo, hi in clipped[1:]:
        if lo <= merged[-1][1] + max_gap:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    covered = sum(hi - lo for lo, hi in merged)
    return min(1.0, covered / (end - start))
