"""The three workloads, their output checks and their exact counts.

A workload *unit* is a short list of program calls ("steps") built from
the workload seed.  Each step is timed at the ``Simulator`` boundary,
then checked and released before the next one starts, so a unit's peak
memory is that of its largest step, as it is for a user running the
same calls.  The program sees only the generated scenario.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (AggregateVarSpec, ContextTypeDef, EnviroTrackApp,
                   GroupConfig, LineTrajectory, MethodDef, Target,
                   TimerInvocation, TrackingObjectDef)
from repro.experiments.figures import (STRESS_COLUMNS, STRESS_QUEUE_LIMIT,
                                       STRESS_ROWS, STRESS_TASK_COST)
from repro.experiments.scenarios import TankScenario, run_tank_scenario
from repro.experiments.transport_chaos import transport_chaos
from repro.radio import reset_frame_ids
from repro.sim import trace_digest

import calibration
from catalogue import CHAOS, FIELD, FIG5
from tracing import BoundaryClock, Patches, Tracer

perf = time.perf_counter

#: A field-500 report further than this from every vehicle is wrong.
REPORT_TOLERANCE = 2.0

#: Trace categories counted exactly (per-layer guards).
TRACE_COUNTS = {"gm.takeover": "groups.takeovers",
                "gm.label_created": "groups.labels_created"}

#: Counts reported as means over motes: (metric, per-mote sum key).
MOTE_MEANS = (("node.cpu_wait_ms", "_cpu_wait_sum"),
              ("node.cpu_util", "_cpu_util_sum"))


@dataclass
class Unit:
    """One workload unit: timings, operations, digests and exact counts."""

    setup: float = 0.0
    wall: float = 0.0
    run: float = 0.0
    simulated: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: List[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)
    #: The same host times at reference speed (see calibration.py).
    setup_ref: float = 0.0
    wall_ref: float = 0.0
    run_ref: float = 0.0

    @property
    def sim_rate(self) -> float:
        return self.simulated / self.run if self.run > 0 else 0.0

    @property
    def speed(self) -> float:
        """Mean factor from host seconds to reference-speed seconds."""
        return self.wall_ref / self.wall if self.wall > 0 else 1.0

    def at_reference_speed(self) -> Dict[str, float]:
        """wall_s, setup_s and sim_rate at the reference host speed."""
        return {"wall_s": self.wall_ref, "setup_s": self.setup_ref,
                "sim_rate": (self.simulated / self.run_ref
                             if self.run_ref > 0 else 0.0)}

    def finish(self) -> None:
        """Turn sums into means and ratios and drop the helper keys."""
        counts = self.counts
        motes = counts.pop("_motes", 0)
        for metric, key in MOTE_MEANS:
            total = counts.pop(key, 0.0)
            counts[metric] = total / motes if motes else 0.0
        received = counts.pop("_frames_received", 0)
        attempts = counts["radio.reception_attempts"]
        counts["radio.rx_ratio"] = received / attempts if attempts else 0.0


@dataclass
class Outcome:
    """What a step's checks found."""

    attempted: int
    failed: int
    digests: List[str]
    counts: Dict[str, float]


Step = Tuple[Callable[[], Any], Callable[[Any], Outcome]]


# ----------------------------------------------------------------------
# fig5-stress: Figure 5 takeover probes in the CPU-saturated corner
# ----------------------------------------------------------------------
def fig5_scenarios(seed: int, size: str = "full",
                   telemetry: bool = True) -> List[TankScenario]:
    """The Figure 5 stress rig at heartbeat 1/16 s, SR 2, takeover mode."""
    columns, rows, speeds = STRESS_COLUMNS, STRESS_ROWS, (1.0, 2.0)
    if size == "tiny":
        columns, rows, speeds = 6, 3, (2.0,)
    base = TankScenario(
        columns=columns, rows=rows, task_cost=STRESS_TASK_COST,
        cpu_queue_limit=STRESS_QUEUE_LIMIT, with_base_station=False,
        base_loss_rate=0.05, relinquish=False, sensing_radius=2.0,
        heartbeat_period=0.0625, telemetry=telemetry, seed=seed)
    return [replace(base, speed=speed) for speed in speeds]


def fig5_steps(seed: int, size: str, telemetry: bool) -> List[Step]:
    def step(scenario: TankScenario) -> Step:
        def check(result: Any) -> Outcome:
            if isinstance(result, Exception):
                return Outcome(1, 1, [], {})
            reached = result.app.sim.now >= scenario.duration
            return Outcome(1, 0 if reached else 1,
                           [trace_digest(result.app.sim)],
                           {"groups.coherent_probes": int(result.coherent)})
        return (_guarded(lambda: run_tank_scenario(scenario)), check)
    return [step(s) for s in fig5_scenarios(seed, size, telemetry)]


# ----------------------------------------------------------------------
# field-500: a sparse 500-mote field with four vehicles
# ----------------------------------------------------------------------
def _report(ctx) -> None:
    """The Figure 2 report method."""
    location = ctx.read("location")
    if location.valid:
        ctx.my_send({"location": location.value})


def build_field(seed: int, size: str = "full",
                telemetry: bool = True) -> Tuple[EnviroTrackApp, float]:
    """Assemble the field-500 deployment; returns it and its horizon."""
    columns, rows, vehicles, horizon = 25, 20, 4, 40.0
    if size == "tiny":
        columns, rows, vehicles, horizon = 8, 6, 2, 20.0
    app = EnviroTrackApp(seed=seed, communication_radius=3.0,
                         base_loss_rate=0.05, telemetry=telemetry)
    app.field.deploy_grid(columns, rows)
    for index in range(vehicles):
        row = (index + 0.5) * rows / vehicles - 0.5
        if index % 2 == 0:
            trajectory = LineTrajectory((-1.5, row), 0.25)
        else:
            trajectory = LineTrajectory((columns - 1 + 1.5, row), 0.25,
                                        heading=math.pi)
        app.field.add_target(Target(name=f"vehicle{index}", kind="vehicle",
                                    trajectory=trajectory,
                                    signature_radius=1.0))
    app.field.install_detection_sensors("vehicle_seen", kinds=["vehicle"])
    app.add_context_type(ContextTypeDef(
        name="tracker", activation="vehicle_seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("reporter", [
            MethodDef("report_function", TimerInvocation(2.0), _report)])],
        group=GroupConfig(suppression_range=2.5, join_range=2.5)))
    app.place_base_station((-1.0, -2.0))
    return app, horizon


def check_reports(app: EnviroTrackApp) -> Tuple[int, int]:
    """(attempted, failed): one operation per base-station report, plus
    one failed operation per vehicle that no report is nearest to."""
    targets = app.field.targets
    attempted = failed = 0
    reported = set()
    for record in app.base_station.reports:
        attempted += 1
        location = record.values.get("location")
        if location is None:
            failed += 1
            continue
        distance, name = min(
            (math.dist(location, t.position(record.reported_at)), t.name)
            for t in targets)
        if distance > REPORT_TOLERANCE:
            failed += 1
        else:
            reported.add(name)
    missing = len(targets) - len(reported)
    return attempted + missing, failed + missing


def field_steps(seed: int, size: str, telemetry: bool) -> List[Step]:
    def call() -> EnviroTrackApp:
        reset_frame_ids()
        app, horizon = build_field(seed, size, telemetry)
        app.install()
        app.run(until=horizon)
        return app

    def check(app: Any) -> Outcome:
        if isinstance(app, Exception):
            return Outcome(1, 1, [], {})
        attempted, failed = check_reports(app)
        return Outcome(attempted, failed, [trace_digest(app.sim)],
                       {"core.base_reports": len(app.base_station.reports)})
    return [(_guarded(call), check)]


# ----------------------------------------------------------------------
# transport-chaos: reliable vs raw MTP under leader crashes
# ----------------------------------------------------------------------
CHAOS_CRASHES = 3


def chaos_repetitions(size: str) -> int:
    return 8 if size == "full" else 1


def chaos_steps(seed: int, size: str, telemetry: bool) -> List[Step]:
    if not telemetry:
        raise ValueError("transport_chaos has no telemetry switch")

    def call():
        return transport_chaos(repetitions=chaos_repetitions(size),
                               seed_base=seed, jobs=1,
                               crashes=CHAOS_CRASHES)

    def check(result: Any) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(1, 1, [], {})
        reliable = result.outcomes_for("reliable")
        # An invocation fails unless it was delivered exactly once; each
        # duplicate delivery counts as one failed operation.
        failed = sum(o.sent - o.delivered + o.duplicates for o in reliable)
        outcomes = result.outcomes
        return Outcome(
            sum(o.sent for o in reliable), failed,
            [o.trace_digest for o in outcomes],
            {"transport.invocations": sum(o.sent for o in outcomes),
             "transport.retransmits": sum(o.retransmits for o in outcomes),
             "transport.acks": sum(o.acks for o in outcomes),
             "transport.dead_letters": sum(o.dead_letters
                                           for o in outcomes),
             "transport.duplicates": sum(o.duplicates for o in outcomes),
             "transport.raw_delivery_ratio":
                 result.delivery_ratio("raw") or 0.0})
    return [(_guarded(call), check)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable[[int, str, bool], List[Step]]
    #: Whether the program offers a telemetry-off twin of this workload.
    telemetry_switch: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(FIG5, "Figure 5 takeover probes at heartbeat 1/16 s: heartbeat "
                   "floods saturate mote CPUs, radio fan-out, MAC, groups "
                   "and spans", fig5_steps),
    Workload(FIELD, "500 mostly idle motes, four vehicles: sense polls, "
                    "CPU tasks and 500 nodes' timers; sparse local radio",
             field_steps),
    Workload(CHAOS, "raw and reliable MTP under 3 leader crashes and a loss "
                    "spike: routing, acks, retries, directory, faults",
             chaos_steps, telemetry_switch=False),
)}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def _guarded(call: Callable[[], Any]) -> Callable[[], Any]:
    """Run ``call``; an exception is the step's (failed) result."""
    def guarded():
        try:
            return call()
        except Exception as error:  # the run must go on and report it
            traceback.print_exc(file=sys.stderr)
            return error
    return guarded


def clock_counts(clock: BoundaryClock) -> Counter:
    """Exact counts read from the simulators and fields a step built."""
    counts = Counter()
    for sim in clock.sims:
        counts["sim.events"] += sim.events_fired
        counts["sim.compactions"] += sim.compactions
        counts["telemetry.trace_records"] += len(sim.trace)
        counts["telemetry.spans"] += len(sim.spans)
        timeouts = sim.metrics.get("repro_dir_lookup_timeouts_total")
        if timeouts is not None:
            counts["naming.lookup_timeouts"] += int(timeouts.value())
        for record in sim.trace:
            category = record.category
            metric = TRACE_COUNTS.get(category)
            if metric is not None:
                counts[metric] += 1
            elif (category.startswith("fault.")
                  and not category.endswith("_skipped")):
                counts["faults.injected"] += 1
    for sensor_field in clock.fields:
        stats = sensor_field.medium.stats
        counts["radio.frames_sent"] += stats.frames_sent
        counts["_frames_received"] += stats.frames_received
        counts["radio.reception_attempts"] += sum(
            stats.reception_attempts_by_kind.values())
        counts["radio.collisions"] += stats.receptions_dropped["collision"]
        counts["groups.heartbeats"] += stats.sent_by_kind["gm.heartbeat"]
        for mote in sensor_field.motes.values():
            cpu = mote.cpu
            counts["node.cpu_tasks"] += cpu.executed
            counts["node.cpu_drops"] += cpu.dropped
            counts["_cpu_wait_sum"] += 1e3 * cpu.mean_latency()
            counts["_cpu_util_sum"] += cpu.utilization()
            counts["_motes"] += 1
    return counts


def run_unit(workload: Workload, seed: int, size: str = "full",
             telemetry: bool = True,
             tracer: Optional[Tracer] = None) -> Unit:
    """Run and check one unit; ``tracer`` (if any) records its spans."""
    unit = Unit()
    for call, check in workload.steps(seed, size, telemetry):
        # Every step starts from the same heap, as in a fresh process, so
        # a full collection of the previous step's garbage does not land
        # at a random point of this step's timed regions.
        gc.collect()
        patches = Patches()
        clock = BoundaryClock(tracer)
        clock.install(patches)
        try:
            if tracer is not None:
                tracer.install(patches)
            with calibration.SpeedSampler() as sampler:
                started = perf()
                result = call()
                elapsed = perf() - started
        finally:
            if tracer is not None:
                tracer.on = False
            restored = patches.restore()
        if not restored:
            unit.problems.append("instrumentation was not removed")
        wall = elapsed - clock.setup_seconds
        factor = sampler.factor()
        unit.setup += clock.setup_seconds
        unit.wall += wall
        unit.run += clock.run_seconds
        unit.setup_ref += clock.setup_seconds * factor
        unit.wall_ref += wall * factor
        unit.run_ref += clock.run_seconds * factor
        unit.simulated += clock.simulated
        outcome = check(result)
        unit.attempted += outcome.attempted
        unit.failed += outcome.failed
        unit.digests.extend(outcome.digests)
        unit.counts.update(clock_counts(clock))
        unit.counts.update(outcome.counts)
        # Release this step's deployment before the next one is built.
        del result, clock, outcome
    unit.finish()
    return unit
