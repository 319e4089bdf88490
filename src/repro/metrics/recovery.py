"""Recovery metrics for injected leader crashes.

Turns a finished run's trace plus the injector's ``fault.leader_crash``
records into per-crash recovery measurements:

* **takeover latency** — crash → the earliest instant from which exactly
  one live leader serves the crashed label for the rest of the
  observation window.  §5.2's design bound is roughly the receive
  timeout (≈2.1 × heartbeat period) plus the takeover claim jitter.
* **label continuity** — the *same* context label survived the crash (no
  replacement label was minted for the context type), the paper's
  coherence requirement under churn.
* **duplicate-leader windows** — total time with two or more live
  leaders of the crashed label, the failure mode the takeover probes
  exist to suppress.

Leadership tenures come from the leadership ledger
(:mod:`repro.metrics.leadership`), which closes a crashed leader's
tenures at its ``node.fail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim import Simulator
from .leadership import Tenure, leader_tenures


@dataclass(frozen=True)
class CrashRecovery:
    """What happened after one injected leader crash."""

    crash_time: float
    victim: int
    label: str
    #: Observation window end (next injected crash or end of run).
    window_end: float
    #: Crash → stable unique live leader; None when the label never
    #: stably recovered inside the window.
    takeover_latency: Optional[float]
    #: A unique live leader of the same label was re-established for a
    #: stable dwell inside the window.
    recovered: bool
    #: The crashed label was still being served at the end of the
    #: window — i.e. no replacement label displaced it (§5.2 coherence;
    #: short-lived spurious mints that get suppressed do not count).
    continuity: bool
    #: Total time with >= 2 live leaders of the label inside the window.
    duplicate_time: float


@dataclass(frozen=True)
class RecoveryReport:
    """Aggregate recovery statistics of one run."""

    context_type: str
    crashes: Tuple[CrashRecovery, ...]

    @property
    def crash_count(self) -> int:
        return len(self.crashes)

    @property
    def recovered_count(self) -> int:
        return sum(1 for c in self.crashes if c.recovered)

    @property
    def recovery_rate(self) -> Optional[float]:
        if not self.crashes:
            return None
        return self.recovered_count / len(self.crashes)

    @property
    def continuity_rate(self) -> Optional[float]:
        if not self.crashes:
            return None
        return sum(1 for c in self.crashes if c.continuity) \
            / len(self.crashes)

    def latencies(self) -> List[float]:
        return [c.takeover_latency for c in self.crashes
                if c.takeover_latency is not None]

    @property
    def mean_latency(self) -> Optional[float]:
        values = self.latencies()
        return sum(values) / len(values) if values else None

    @property
    def median_latency(self) -> Optional[float]:
        return _quantile(self.latencies(), 0.5)

    @property
    def p95_latency(self) -> Optional[float]:
        return _quantile(self.latencies(), 0.95)

    @property
    def max_latency(self) -> Optional[float]:
        values = self.latencies()
        return max(values) if values else None

    @property
    def total_duplicate_time(self) -> float:
        return sum(c.duplicate_time for c in self.crashes)


def _quantile(values: List[float], q: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _count_steps(tenures: List[Tenure], label: str,
                 start: float, end: float
                 ) -> List[Tuple[float, int]]:
    """Piecewise-constant live-leader count of ``label`` over [start, end].

    Returns (time, count) breakpoints beginning at ``start``.
    """
    deltas: List[Tuple[float, int]] = []
    base = 0
    for _node, tenure_label, lo, hi in tenures:
        if tenure_label != label:
            continue
        lo_clip, hi_clip = max(lo, start), min(hi, end)
        if hi_clip <= lo_clip:
            continue
        if lo_clip == start and lo < start:
            base += 1
            if hi_clip < end:
                deltas.append((hi_clip, -1))
            continue
        deltas.append((lo_clip, +1))
        if hi_clip < end:
            deltas.append((hi_clip, -1))
    # Tenures covering all of [start, end] contribute to base only.
    steps: List[Tuple[float, int]] = [(start, base)]
    count = base
    for time, delta in sorted(deltas):
        count += delta
        if time == steps[-1][0]:
            steps[-1] = (time, count)
        else:
            steps.append((time, count))
    return steps


def analyze_recovery(sim: Simulator, context_type: str,
                     stability: float = 0.25) -> RecoveryReport:
    """Measure recovery after every injected ``fault.leader_crash``.

    ``stability``: minimum dwell (seconds) of a unique-live-leader state
    for it to count as "re-established" — transient count==1 instants
    while duplicates are still being resolved by yields do not.  Runs
    that reach the window end count regardless of dwell.
    """
    crashes = [rec for rec in sim.trace
               if rec.category == "fault.leader_crash"
               and rec.detail.get("type") == context_type]
    tenures = leader_tenures(sim.trace, context_type, sim.now)
    results: List[CrashRecovery] = []
    for index, crash in enumerate(crashes):
        window_end = (crashes[index + 1].time
                      if index + 1 < len(crashes) else sim.now)
        label = crash.detail.get("label")
        if label is None or window_end <= crash.time:
            continue
        steps = _count_steps(tenures, label, crash.time, window_end)
        recovery_at: Optional[float] = None
        duplicate_time = 0.0
        final_count = 0
        for position, (time, count) in enumerate(steps):
            next_time = (steps[position + 1][0]
                         if position + 1 < len(steps) else window_end)
            final_count = count
            if count >= 2:
                duplicate_time += next_time - time
            stable = (next_time - time >= stability
                      or next_time >= window_end)
            if count == 1 and stable and recovery_at is None:
                recovery_at = time
        recovered = recovery_at is not None
        latency = (max(0.0, recovery_at - crash.time)
                   if recovered else None)
        results.append(CrashRecovery(
            crash_time=crash.time, victim=crash.node or -1, label=label,
            window_end=window_end, takeover_latency=latency,
            recovered=recovered,
            continuity=recovered and final_count >= 1,
            duplicate_time=duplicate_time))
    return RecoveryReport(context_type=context_type,
                          crashes=tuple(results))
