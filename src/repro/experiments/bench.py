"""Microbenchmarks of the substrate behind the paper's §5 services.

Four benches, each on a fixed, seeded workload:

* ``medium`` — a transmit storm through the radio medium, grid spatial
  index vs brute-force scan;
* ``engine`` — watchdog kick churn (the group-management timers), lazy
  scheduler vs the legacy cancel-and-reschedule heap;
* ``mtp`` — reliable vs raw §5.3 transport on a clean channel with one
  leader crash, counted in frames;
* ``overhead`` — the medium storm with telemetry off vs on, profiler
  disabled.

Every paired run also *checks* its two modes against each other: they
must produce byte-identical trace digests (and, for the engine, equal
event counts), or the bench aborts.  That makes every benchmark run a
free differential test.

Each bench returns :class:`Cell` records, one per measured cell.
``python -m repro bench`` prints them, gates them with :func:`check`
against the committed ``BENCH.json`` and, with ``--update-baseline``,
merges them into it with :func:`save`.  Wall-clock gates compare ratios
(speedups), not wall times, so they hold on machines of different
absolute speed; simulated counts are machine-independent.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..radio import BROADCAST, Frame, Medium, TransceiverPort, \
    reset_frame_ids
from ..sim import (PeriodicTimer, Simulator, WatchdogTimer, dump_trace,
                   trace_digest)

#: Committed baseline file name (repo root).
BASELINE_FILENAME = "BENCH.json"

#: Node counts for the full and the ``--quick`` smoke sweep.
FULL_SIZES = (100, 250, 500)
QUICK_SIZES = (100, 500)
FULL_FRAMES = 400
QUICK_FRAMES = 120

#: The paper's radio reach, in grid units.
COMMUNICATION_RADIUS = 6.0
#: Field side = factor × √N keeps density constant (0.04 motes/unit²,
#: ≈4–5 motes per communication disk) as N grows.
DENSITY_SIDE_FACTOR = 5.0
#: Inter-frame gap (s); below the ≈5.8 ms airtime of a default frame, so
#: consecutive transmissions overlap and the collision path is exercised.
FRAME_GAP = 0.002

#: Engine-churn workload shape: EnviroTrack group management keeps a few
#: watchdogs per node (receive timer, wait timer, report schedule…) and
#: kicks them on every heartbeat, so the churn bench arms this many
#: watchdogs per node and kicks them all each "heartbeat".
WATCHDOGS_PER_NODE = 4
#: Watchdog silence timeout (s); kicks land far inside it, so in heap
#: mode nearly every scheduled expiry becomes cancelled garbage.
WATCHDOG_TIMEOUT = 1.0
#: Nominal kick period (s); per-node jitter of ±20% is applied so kick
#: events interleave across nodes instead of ticking in lockstep.
KICK_PERIOD = 0.05
#: Fraction of nodes that go silent halfway through, letting their
#: watchdogs actually expire (expiries are the trace content the digest
#: check compares across schedulers).
SILENT_FRACTION = 0.2

FULL_CHURN_DURATION = 20.0
QUICK_CHURN_DURATION = 6.0

#: The overhead gate is wall-clock on shared machines: a failing
#: measurement is retried before it counts as a regression.
OVERHEAD_TRIES = 3


@dataclass(frozen=True)
class Cell:
    """One measured cell of one bench.

    ``key`` holds the workload parameters that identify the cell
    (``nodes``, ``frames``, ``duration``, ``seed``…), ``seconds`` the
    wall time per mode and ``counts`` simulated integers, which are
    deterministic given the key on any machine.
    """

    bench: str
    key: Dict[str, float]
    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """The bench's headline ratio: numerator / denominator."""
        spec = BENCHES[self.bench]
        values = {**self.counts, **self.seconds}
        if values[spec.denominator] <= 0:
            # A telemetry-off run too short to time shows no overhead.
            return 1.0 if self.bench == "overhead" else float("inf")
        return values[spec.numerator] / values[spec.denominator]


def _ident(cell: Cell) -> Tuple[str, Tuple[Tuple[str, float], ...]]:
    return cell.bench, tuple(sorted(cell.key.items()))


def _find(cells: Sequence[Cell], key: Dict[str, float]) -> Optional[Cell]:
    return next((cell for cell in cells if cell.key == key), None)


def load(path: str) -> List[Cell]:
    """Read every cell of a baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return [Cell(bench=entry["bench"], key=entry["key"],
                 seconds=entry["seconds"], counts=entry["counts"])
            for entry in data["cells"]]


def save(path: str, cells: Sequence[Cell]) -> None:
    """Merge ``cells`` into the baseline file at ``path``.

    A cell replaces the stored cell with the same bench and key; every
    other stored cell stays, so refreshing from a ``--quick`` run keeps
    the full sweep's cells and their exact counts.  Each cell also
    carries its headline ratio, for readers; :func:`load` ignores it.
    """
    merged = {_ident(cell): cell
              for cell in (load(path) if os.path.exists(path) else [])}
    merged.update((_ident(cell), cell) for cell in cells)
    entries = []
    for ident in sorted(merged):
        cell = merged[ident]
        entries.append({"bench": cell.bench, "key": cell.key,
                        "seconds": {mode: round(seconds, 6)
                                    for mode, seconds in cell.seconds.items()},
                        "counts": cell.counts,
                        BENCHES[cell.bench].label: round(cell.ratio, 3)})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"cells": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_table(cells: Sequence[Cell]) -> str:
    """One table per bench: key, seconds per mode, counts, ratio."""
    blocks = []
    for bench in dict.fromkeys(cell.bench for cell in cells):
        spec = BENCHES[bench]
        rows = [cell for cell in cells if cell.bench == bench]
        header = [*rows[0].key, *rows[0].seconds, *rows[0].counts,
                  spec.label]
        body = [[*(f"{value:g}" for value in cell.key.values()),
                 *(f"{seconds:.4f}s" for seconds in cell.seconds.values()),
                 *(str(count) for count in cell.counts.values()),
                 f"{cell.ratio:.3f}x"] for cell in rows]
        widths = [max(map(len, column)) for column in zip(header, *body)]
        lines = [spec.title]
        for row in (header, *body):
            lines.append(" ".join(text.rjust(width)
                                  for text, width in zip(row, widths)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _run_storm(index: str, nodes: int, frames: int, seed: int,
               telemetry: bool = True,
               trace_path: Optional[str] = None) -> Tuple[float, str]:
    """Time one transmit storm; return (seconds, trace digest).

    Everything random — placement, sender choice, channel loss — derives
    from ``seed`` alone, so two calls differing only in ``index`` do the
    exact same work and must log the exact same trace.  ``telemetry``
    toggles the metrics/span machinery (the trace digest is identical
    either way); ``trace_path`` dumps the storm's trace as JSONL.
    """
    reset_frame_ids()
    sim = Simulator(seed=seed, telemetry=telemetry)
    medium = Medium(sim, communication_radius=COMMUNICATION_RADIUS,
                    base_loss_rate=0.1, index=index)
    side = DENSITY_SIDE_FACTOR * math.sqrt(nodes)
    placement = random.Random(seed)
    positions: List[Tuple[float, float]] = []
    for node_id in range(nodes):
        position = (placement.uniform(0.0, side),
                    placement.uniform(0.0, side))
        positions.append(position)
        medium.attach(TransceiverPort(
            node_id, (lambda p=position: p), lambda frame: None))
    senders = random.Random(seed + 1)
    started = time.perf_counter()
    for _ in range(frames):
        src = senders.randrange(nodes)
        medium.channel_busy(positions[src])
        medium.neighbors_of(src)
        medium.transmit(Frame(src=src, dst=BROADCAST, kind="bench"))
        sim.run(until=sim.now + FRAME_GAP)
    sim.run(until=sim.now + 1.0)  # drain in-flight deliveries
    elapsed = time.perf_counter() - started
    if trace_path:
        dump_trace(sim, trace_path)
    return elapsed, trace_digest(sim)


def bench_medium(quick: bool = False, seed: int = 2004,
                 sizes: Optional[Tuple[int, ...]] = None,
                 frames: Optional[int] = None,
                 trace_out: Optional[str] = None) -> List[Cell]:
    """Run the storm sweep; raise if the two index modes ever diverge.

    ``trace_out`` writes the largest grid storm's trace as JSONL.
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    if frames is None:
        frames = QUICK_FRAMES if quick else FULL_FRAMES
    cells: List[Cell] = []
    largest = max(sizes)
    for nodes in sizes:
        grid_seconds, grid_digest = _run_storm(
            "grid", nodes, frames, seed,
            trace_path=trace_out if nodes == largest else None)
        brute_seconds, brute_digest = _run_storm("bruteforce", nodes,
                                                 frames, seed)
        if grid_digest != brute_digest:
            raise AssertionError(
                f"index modes diverged at {nodes} nodes: grid digest "
                f"{grid_digest[:16]}… != bruteforce {brute_digest[:16]}…")
        cells.append(Cell("medium", {"nodes": nodes, "frames": frames},
                          seconds={"grid": grid_seconds,
                                   "bruteforce": brute_seconds}))
    return cells


def bench_telemetry_overhead(nodes: int = 100, frames: int = 600,
                             seed: int = 2004,
                             repeats: int = 7) -> List[Cell]:
    """Measure what telemetry costs while the profiler stays disabled.

    Runs the same storm with telemetry off (null registry + span
    tracker) and on (live registry + spans, profiler NOT enabled),
    interleaved ``repeats`` times, and reports the pair with the
    *median* on/off ratio.  Pairing adjacent runs cancels machine-speed
    drift on shared CI hosts (a fast moment speeds up both halves of a
    pair), and the median discards pairs a scheduler hiccup landed in.
    The two modes must produce identical trace digests (telemetry is
    pure side-state), so this doubles as an equivalence check.  The
    disabled profiler itself is a single ``is None`` test per
    dispatched event, so the measured ratio bounds its cost too.
    """
    pairs: List[Tuple[float, float]] = []
    off_digest = on_digest = ""
    _run_storm("grid", nodes, frames, seed)  # warm caches/allocator
    for _ in range(repeats):
        off_seconds, off_digest = _run_storm("grid", nodes, frames, seed,
                                             telemetry=False)
        on_seconds, on_digest = _run_storm("grid", nodes, frames, seed,
                                           telemetry=True)
        pairs.append((off_seconds, on_seconds))
    if off_digest != on_digest:
        raise AssertionError(
            f"telemetry changed the trace: off digest "
            f"{off_digest[:16]}… != on {on_digest[:16]}…")
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    median_off, median_on = pairs[len(pairs) // 2]
    return [Cell("overhead",
                 {"nodes": nodes, "frames": frames, "repeats": repeats},
                 seconds={"off": median_off, "on": median_on})]


def bench_mtp(seed: int = 2004) -> List[Cell]:
    """Run the paired clean-channel transport runs and count frames.

    The loss spike is disabled and the base loss rate is zero, so the
    only adversity is one scripted leader crash — enough that the
    reliable mode's machinery (retransmit + escalation) actually runs,
    while keeping the frame counts a pure function of (spec, seed).
    """
    from .transport_chaos import TransportChaosSpec, _transport_run
    overrides = dict(seed=seed, base_loss_rate=0.0, spike_extra_loss=0.0,
                     crashes=1)
    raw = _transport_run(TransportChaosSpec(mode="raw", **overrides))
    reliable = _transport_run(
        TransportChaosSpec(mode="reliable", **overrides))
    if raw.sent != reliable.sent:
        raise AssertionError(
            f"modes diverged on workload size: raw sent {raw.sent} != "
            f"reliable sent {reliable.sent}")
    return [Cell("mtp", {"seed": seed}, counts={
        "sent": raw.sent,
        "raw_frames": raw.frames, "reliable_frames": reliable.frames,
        "raw_delivered": raw.delivered,
        "reliable_delivered": reliable.delivered,
        "retransmits": reliable.retransmits, "acks": reliable.acks,
        "dead_letters": reliable.dead_letters,
        "duplicates": reliable.duplicates})]


def _run_churn(scheduler: str, nodes: int, duration: float, seed: int,
               trace_path: Optional[str] = None
               ) -> Tuple[float, str, int, int, int]:
    """Time one watchdog-churn run under ``scheduler``.

    Returns ``(seconds, digest, events_fired, expiries, compactions)``.
    Every node keeps :data:`WATCHDOGS_PER_NODE` watchdogs kicked from a
    per-node jittered heartbeat; a :data:`SILENT_FRACTION` of nodes stop
    kicking halfway through, so their watchdogs expire (and re-kick
    themselves), giving the trace digest content to compare.  All
    randomness derives from ``seed`` alone, so two calls differing only
    in ``scheduler`` do identical work and must log identical traces.
    """
    sim = Simulator(seed=seed, scheduler=scheduler)
    rng = sim.rng.stream("bench.engine")
    silent_after = duration / 2.0
    expiries = [0]
    for node in range(nodes):
        watchdogs: List[WatchdogTimer] = []
        for slot in range(WATCHDOGS_PER_NODE):
            cell: List[WatchdogTimer] = []

            def expire(node=node, slot=slot, cell=cell) -> None:
                expiries[0] += 1
                sim.record("bench.expire", node=node, slot=slot)
                cell[0].kick()

            dog = WatchdogTimer(sim, timeout=WATCHDOG_TIMEOUT,
                                callback=expire,
                                label=f"bench.dog{slot}@{node}")
            cell.append(dog)
            dog.kick()
            watchdogs.append(dog)
        period = KICK_PERIOD * (0.8 + 0.4 * rng.random())
        silent = rng.random() < SILENT_FRACTION

        def kick_all(watchdogs=watchdogs, silent=silent) -> None:
            if silent and sim.now >= silent_after:
                return
            for dog in watchdogs:
                dog.kick()

        PeriodicTimer(sim, period, kick_all,
                      label=f"bench.kick@{node}").start()
    started = time.perf_counter()
    sim.run(until=duration)
    elapsed = time.perf_counter() - started
    if trace_path:
        dump_trace(sim, trace_path)
    return (elapsed, trace_digest(sim), sim.events_fired, expiries[0],
            sim.compactions)


def bench_engine(quick: bool = False, seed: int = 2004,
                 sizes: Optional[Tuple[int, ...]] = None,
                 duration: Optional[float] = None,
                 trace_out: Optional[str] = None) -> List[Cell]:
    """Run the churn sweep; raise if the two schedulers ever diverge.

    ``trace_out`` writes the largest lazy run's trace as JSONL.
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    if duration is None:
        duration = QUICK_CHURN_DURATION if quick else FULL_CHURN_DURATION
    cells: List[Cell] = []
    largest = max(sizes)
    for nodes in sizes:
        lazy_seconds, lazy_digest, lazy_fired, lazy_expiries, compactions = \
            _run_churn("lazy", nodes, duration, seed,
                       trace_path=trace_out if nodes == largest else None)
        heap_seconds, heap_digest, heap_fired, heap_expiries, _ = \
            _run_churn("heap", nodes, duration, seed)
        if lazy_digest != heap_digest:
            raise AssertionError(
                f"schedulers diverged at {nodes} nodes: lazy digest "
                f"{lazy_digest[:16]}… != heap {heap_digest[:16]}…")
        if (lazy_fired, lazy_expiries) != (heap_fired, heap_expiries):
            raise AssertionError(
                f"schedulers diverged at {nodes} nodes: lazy fired "
                f"{lazy_fired}/{lazy_expiries} expiries != heap "
                f"{heap_fired}/{heap_expiries}")
        cells.append(Cell(
            "engine", {"nodes": nodes, "duration": duration},
            seconds={"lazy": lazy_seconds, "heap": heap_seconds},
            counts={"events_fired": lazy_fired, "expiries": lazy_expiries,
                    "compactions": compactions}))
    return cells


Gate = Callable[[Sequence[Cell], Sequence[Cell], float], Tuple[bool, str]]


def check(bench: str, current: Sequence[Cell],
          baseline: Sequence[Cell]) -> Tuple[bool, str]:
    """Gate ``bench``'s cells of a run against the baseline's.

    Returns ``(ok, message)``; the message starts with ``ok`` or names
    the check that failed.
    """
    spec = BENCHES[bench]
    return spec.gate([cell for cell in current if cell.bench == bench],
                     [cell for cell in baseline if cell.bench == bench],
                     spec.factor)


def _largest(cells: Sequence[Cell], nodes: int) -> Cell:
    return max((cell for cell in cells if cell.key["nodes"] == nodes),
               key=_ident)


def _gate_speedup(current: Sequence[Cell], baseline: Sequence[Cell],
                  factor: float) -> Tuple[bool, str]:
    """Speedup floor at the largest node count both sides cover.

    Passes while ``current speedup ≥ baseline speedup / factor``.  Ratios
    of ratios are machine-independent: a uniformly slower machine scales
    both timings alike, leaving the speedup unchanged.  The run's largest
    cell at that node count is compared with the baseline cell of the
    same key, or with the baseline's largest cell there if none matches.
    """
    common = ({cell.key["nodes"] for cell in current}
              & {cell.key["nodes"] for cell in baseline})
    if not common:
        return False, "no common node counts between run and baseline"
    nodes = max(common)
    measured = _largest(current, nodes)
    expected = _find(baseline, measured.key) or _largest(baseline, nodes)
    floor = expected.ratio / factor
    message = (f"{nodes} nodes: speedup {measured.ratio:.2f}x vs "
               f"baseline {expected.ratio:.2f}x (floor {floor:.2f}x)")
    if measured.ratio < floor:
        return False, f"REGRESSION — {message}"
    return True, f"ok — {message}"


def _gate_engine(current: Sequence[Cell], baseline: Sequence[Cell],
                 factor: float) -> Tuple[bool, str]:
    """Exact event counts on matching cells, then the speedup floor.

    Wherever the run matches a baseline cell's (nodes, duration), its
    event and expiry counts must be **equal** — they are simulated
    quantities, so any drift means the engine's semantics changed, not
    the machine.  The baseline keeps both the quick and the full
    sweep's cells, so either sweep is count-gated.
    """
    for cell in current:
        expected = _find(baseline, cell.key)
        if expected is None:
            continue
        got = (cell.counts["events_fired"], cell.counts["expiries"])
        want = (expected.counts["events_fired"],
                expected.counts["expiries"])
        if got != want:
            return False, (
                f"COUNT DRIFT — {cell.key['nodes']} nodes / "
                f"{cell.key['duration']:.1f}s: events/expiries "
                f"{got[0]}/{got[1]} vs baseline {want[0]}/{want[1]}")
    return _gate_speedup(current, baseline, factor)


def _gate_mtp(current: Sequence[Cell], baseline: Sequence[Cell],
              factor: float) -> Tuple[bool, str]:
    """Frame-overhead ceiling, delivery floor and duplicate ceiling.

    Fails when the reliable mode spends more than ``factor ×`` the
    baseline's frame overhead, when clean-channel reliable delivery
    slips below the baseline's (it should stay at 100%), or when a
    clean-channel run produces more end-to-end duplicates than the
    baseline.
    """
    [cell] = current
    expected = _find(baseline, cell.key)
    if expected is None:
        return False, f"no baseline cell for {cell.key}"
    run, base = cell.counts, expected.counts
    ceiling = expected.ratio * factor
    message = (f"overhead {cell.ratio:.3f}x vs baseline "
               f"{expected.ratio:.3f}x (ceiling {ceiling:.3f}x); "
               f"delivered {run['reliable_delivered']}/{run['sent']}")
    if cell.ratio > ceiling:
        return False, f"REGRESSION — {message}"
    if run["sent"] and run["reliable_delivered"] / run["sent"] \
            < base["reliable_delivered"] / max(base["sent"], 1):
        return False, f"DELIVERY REGRESSION — {message}"
    if run["duplicates"] > base["duplicates"]:
        return False, (f"DUPLICATE REGRESSION — {run['duplicates']} "
                       f"clean-channel duplicates (baseline "
                       f"{base['duplicates']}); {message}")
    return True, f"ok — {message}"


def _gate_overhead(current: Sequence[Cell], baseline: Sequence[Cell],
                   factor: float) -> Tuple[bool, str]:
    """Median paired telemetry on/off ratio at most ``factor``."""
    [cell] = current
    message = f"telemetry overhead {cell.ratio:.3f}x (ceiling {factor:.2f}x)"
    if cell.ratio > factor:
        return False, f"REGRESSION — {message}"
    return True, f"ok — {message}"


class BenchSpec(NamedTuple):
    """How one bench is shown and gated."""

    title: str
    #: Name of the headline ratio, and the mode or count names of its
    #: numerator and denominator.
    label: str
    numerator: str
    denominator: str
    gate: Gate
    #: The gate's tolerance (see each gate function).
    factor: float


BENCHES: Dict[str, BenchSpec] = {
    # Regresses below half the baseline's grid-vs-bruteforce speedup.
    "medium": BenchSpec(
        "Medium microbench — transmit storm, grid index vs brute force "
        "(same seed, digests verified equal)",
        "speedup", "bruteforce", "grid", _gate_speedup, 2.0),
    # Regresses below half the baseline's lazy-vs-heap speedup, or on
    # any event-count drift.
    "engine": BenchSpec(
        "Engine microbench — watchdog kick churn, lazy scheduler vs "
        "cancel-and-reschedule (same seed, digests verified equal)",
        "speedup", "heap", "lazy", _gate_engine, 2.0),
    # Frame counts are simulated — deterministic given (spec, seed) on
    # every machine — so the 1.25 tolerance absorbs intentional protocol
    # tweaks between baseline refreshes, not measurement noise.
    "mtp": BenchSpec(
        "MTP reliability bench — clean channel, one leader crash, same "
        "seed per mode (deterministic counts)",
        "overhead", "reliable_frames", "raw_frames", _gate_mtp, 1.25),
    # Telemetry with the profiler left disabled may cost at most 5% wall
    # time over a telemetry-off run; no baseline file involved.
    "overhead": BenchSpec(
        "Telemetry overhead — transmit storm, telemetry off vs on with "
        "the profiler disabled (median interleaved pair)",
        "ratio", "on", "off", _gate_overhead, 1.05),
}
