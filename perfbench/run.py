"""End-to-end benchmark of the EnviroTrack simulator.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig5-stress --seed 91 --trace 0
    python3 perfbench/run.py --workload all --seed 91 --seconds 30

``--trace 0`` repeats untraced units of the workload, one per
:data:`UNIT_SECONDS` of ``--seconds``, and reports the end-to-end
metrics as medians over them.  ``--trace 1`` runs one untraced unit,
one traced unit and interleaved telemetry-off/on twins, and reports the
per-layer metrics.  How many units a run does depends on ``--seconds``
alone, never on the host's speed, so two runs at one seed attempt and
fail the same operations.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in a
fresh process, one after the other, so peak memory is per workload.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import program
import catalogue
from catalogue import END_TO_END, LAYER_METRICS, LAYERS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"
DEFAULT_SEED = 91

#: Host seconds budgeted for one workload unit.  On the 2-vCPU shared
#: host the benchmark was built on, a unit of any workload takes 4 to
#: 9.5 s depending on the host's speed phase.
UNIT_SECONDS = 7.5



def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalogue.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this seed's digests and exact counts "
                             "to perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit_count(seconds: float) -> int:
    """Untraced units in a run of about ``seconds`` (at least two)."""
    return max(2, round(seconds / UNIT_SECONDS))


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _mismatches(expected: Dict, actual: Dict, what: str) -> List[str]:
    return [f"{what} {key}: expected {expected[key]!r}, got "
            f"{actual.get(key)!r}"
            for key in sorted(expected) if actual.get(key) != expected[key]]


class Result:
    """Accumulates operations and correctness problems for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add_unit(self, unit) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)

    def same(self, first, other, what: str) -> None:
        """Two units of one seed must behave identically."""
        if other.digests != first.digests:
            self.problems.append(f"{what}: trace digests differ")
        self.problems.extend(_mismatches(dict(first.counts),
                                         dict(other.counts), what))

    def emit(self, metrics: Dict[str, Dict[str, object]]) -> None:
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": not self.problems,
                          "attempted": self.attempted,
                          "failed": self.failed,
                          "metrics": metrics}))


def _load_reference(seed: int, workload: str) -> Optional[Dict]:
    if not REFERENCE.is_file():
        return None
    reference = json.loads(REFERENCE.read_text())
    if reference.get("seed") != seed:
        return None
    return reference["workloads"].get(workload)


def _save_reference(seed: int, workload: str, entry: Dict) -> None:
    reference = (json.loads(REFERENCE.read_text())
                 if REFERENCE.is_file() else {})
    if reference.get("seed") != seed:
        reference = {"seed": seed, "workloads": {}}
    reference["workloads"].setdefault(workload, {}).update(entry)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def untraced(args: argparse.Namespace) -> None:
    from workloads import WORKLOADS, run_unit
    workload = WORKLOADS[args.workload]
    result = Result()
    units = []
    for _ in range(unit_count(args.seconds)):
        unit = run_unit(workload, args.seed)
        if units:
            result.same(units[0], unit, f"unit {len(units) + 1}")
        units.append(unit)
        result.add_unit(unit)
    reference = _load_reference(args.seed, args.workload)
    if args.record_reference:
        _save_reference(args.seed, args.workload,
                        {"digests": units[0].digests,
                         "counts": dict(units[0].counts)})
    elif reference is not None:
        if reference["digests"] != units[0].digests:
            result.problems.append("trace digests differ from reference")
        result.problems.extend(_mismatches(
            reference["counts"], dict(units[0].counts), "reference"))
    scaled = [u.at_reference_speed() for u in units]
    values = {name: statistics.median(row[name] for row in scaled)
              for name in ("wall_s", "setup_s", "sim_rate")}
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    raw = {"wall_s": [u.wall for u in units],
           "setup_s": [u.setup for u in units],
           "sim_rate": [u.sim_rate for u in units]}
    print(f"{args.workload} seed {args.seed}: {len(units)} units, "
          f"{result.attempted} operations, {result.failed} failed; host "
          f"speed factors "
          + " ".join(f"{u.speed:.3f}" for u in units))
    for metric in END_TO_END:
        line = (f"  {metric.name:<12} {values[metric.name]:>10.4f} "
                f"{metric.unit:<8}")
        if metric.name in raw:
            line += ("  median at reference speed; as measured: "
                     + " ".join(f"{v:.4g}" for v in raw[metric.name]))
        print(line)
    result.emit({m.name: _metric(values[m.name], m.unit)
                 for m in END_TO_END})


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer counts read from a traced unit's spans: metric -> span names.
SPAN_COUNTS = {
    "sensing.reads": ("sensing.read_sensor",),
    "aggregation.reports_added": ("aggregation.add_report",),
    "aggregation.reads": ("aggregation.read",),
    "naming.registers": ("naming.register",),
    "naming.lookups": ("naming.lookup",),
    "transport.route_steps": ("transport.route_to_point",
                              "transport.route_to_node"),
    "groups.rebroadcasts": ("groups.dispatch.gm.rebroadcast",),
}


def layer_values(unit, tracer, untraced_wall: float,
                 telemetry_ratio: float) -> Tuple[Dict[str, float],
                                                  Dict[str, float]]:
    """(all per-layer values, the exact counts among them)."""
    spans = tracer.span_counts()
    exact = {m.name: unit.counts.get(m.name, 0) for m in LAYER_METRICS
             if m.exact}
    exact["sim.timer_arms"] = tracer.timer_arms
    for metric, names in SPAN_COUNTS.items():
        exact[metric] = sum(spans[name] for name in names)
    values: Dict[str, float] = dict(exact)
    # Self times at reference speed, like wall_s: the traced unit's mean
    # speed factor scales every layer alike, so they still add up.
    self_seconds = tracer.layer_self_seconds()
    attributed = 0.0
    for layer in LAYERS:
        if layer != "other":
            values[f"{layer}.self_s"] = (self_seconds.get(layer, 0.0)
                                         * unit.speed)
            attributed += values[f"{layer}.self_s"]
    values["other.self_s"] = unit.wall_ref - attributed
    events = exact["sim.events"]
    values["sim.host_us_per_event"] = (
        1e6 * values["sim.self_s"] / events if events else 0.0)
    values["telemetry.overhead_ratio"] = telemetry_ratio
    values["trace.overhead_ratio"] = unit.wall_ref / untraced_wall
    return values, exact


def traced(args: argparse.Namespace) -> None:
    from tracing import Tracer
    from workloads import WORKLOADS, run_unit
    workload = WORKLOADS[args.workload]
    result = Result()
    plain = run_unit(workload, args.seed)
    result.add_unit(plain)
    tracer = Tracer()
    traced_unit = run_unit(workload, args.seed, tracer=tracer)
    result.add_unit(traced_unit)
    result.same(plain, traced_unit, "traced unit")
    # Telemetry on/off twins, interleaved and alternating which goes
    # first: as many pairs as the untraced units left over (at least one).
    ratios = []
    walls = [plain.wall_ref]
    pairs = max(1, (unit_count(args.seconds) - 2) // 2)
    for _ in range(pairs if workload.telemetry_switch else 0):
        pair = {}
        for telemetry in ((False, True) if len(ratios) % 2 == 0
                          else (True, False)):
            pair[telemetry] = run_unit(workload, args.seed,
                                       telemetry=telemetry)
            result.add_unit(pair[telemetry])
        result.same(plain, pair[True], "telemetry-on twin")
        if pair[False].digests != plain.digests:
            result.problems.append("telemetry-off twin: digests differ")
        on, off = pair[True].wall_ref, pair[False].wall_ref
        walls.append(on)
        ratios.append(on / off)
    values, exact = layer_values(
        traced_unit, tracer, statistics.median(walls),
        statistics.median(ratios) if ratios else 0.0)
    reference = _load_reference(args.seed, args.workload)
    if args.record_reference:
        _save_reference(args.seed, args.workload, {"layer_counts": exact})
    elif reference is not None and "layer_counts" in reference:
        result.problems.extend(_mismatches(reference["layer_counts"], exact,
                                           "reference layer"))
    spans_file = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(spans_file)
    print(f"{args.workload} seed {args.seed}: traced wall "
          f"{traced_unit.wall:.3f} s as measured, untraced "
          f"{statistics.median(walls):.3f} s at reference speed, "
          f"{len(tracer.starts)} spans -> {spans_file.name}")
    print(f"  {'metric':<30} {'value':>14} {'unit':<7} moves / on")
    for metric in LAYER_METRICS:
        print(f"  {metric.name:<30} {values[metric.name]:>14.6g} "
              f"{metric.unit:<7} {'+'.join(metric.moves)} / "
              f"{','.join(metric.on)}")
    result.emit({m.name: _metric(values[m.name], m.unit)
                 for m in LAYER_METRICS})


# ----------------------------------------------------------------------
# --workload all
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> None:
    result = Result()
    metrics = {}
    for name in catalogue.WORKLOADS:
        child = [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(child, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            result.problems.append(f"{name}: exit {completed.returncode}")
            continue
        report = json.loads(lines[-1])
        result.attempted += report["attempted"]
        result.failed += report["failed"]
        if not report["correct"]:
            result.problems.append(f"{name}: checks failed")
        for metric, value in report["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    result.emit(metrics)


def main(argv: Optional[List[str]] = None) -> None:
    program.load()
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    elif args.trace:
        traced(args)
    else:
        untraced(args)


if __name__ == "__main__":
    main()
