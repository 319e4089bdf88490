"""Command-line interface: reproduce any of the paper's experiments.

Examples::

    python -m repro figure3 --svg figure3.svg
    python -m repro table1 --repetitions 3
    python -m repro figure5 --quick
    python -m repro chaos --quick --svg chaos.svg --trace-out chaos.jsonl
    python -m repro chaos --profile transport --quick
    python -m repro ablation --jobs 2
    python -m repro all --quick --out-dir figures/ --jobs 4
    python -m repro bench --quick
    python -m repro report --quick --svg dashboard.svg
    python -m repro report saved-trace.jsonl --prom metrics.prom
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Optional

from .analysis import (chaos_chart, figure3_chart, figure4_chart,
                       figure5_chart, figure6_chart,
                       transport_chaos_chart)
from .experiments import (ablations, chaos, figure3, figure4, figure5,
                          figure6, table1, transport_chaos)
from .experiments import bench

EXPERIMENTS = ("figure3", "figure4", "table1", "figure5", "figure6",
               "chaos", "ablation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the EnviroTrack (ICDCS 2004) evaluation: "
                    "Figures 3-6, Table 1 and the group-management "
                    "ablations; check/format EnviroTrack "
                    "programs with 'compile <file>'; run the substrate "
                    "microbenchmarks with 'bench'; or render a run "
                    "report with 'report'.")
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ("all", "compile", "bench",
                                               "report"),
                        help="which experiment to run, 'compile', "
                             "'bench', or 'report'")
    parser.add_argument("source", nargs="?", default=None,
                        help="EnviroTrack program file (compile) or a "
                             "saved JSONL trace (report; omit to report "
                             "on a fresh live run)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink sweeps for a fast smoke run")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed, applied to every experiment "
                             "(figure3 seeds its single run; sweeps use "
                             "it as their seed-ladder base).  Defaults "
                             "match each experiment's published ladder.")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="independent runs per parameter point")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel worker processes for the sweep "
                             "experiments (0 = one per core; results are "
                             "identical to --jobs 1)")
    parser.add_argument("--svg", metavar="PATH", default=None,
                        help="also write the figure (or the report "
                             "dashboard) as an SVG chart")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="with 'all': write every SVG into DIR")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a representative run's trace as "
                             "JSONL (sweeps rerun their first scenario "
                             "serially; with 'all' + --out-dir, one "
                             "<experiment>.trace.jsonl per experiment)")
    parser.add_argument("--profile", choices=("leader", "transport"),
                        default="leader",
                        help="chaos: 'leader' sweeps leader-crash "
                             "recovery latency (default); 'transport' "
                             "pits reliable MTP against fire-and-forget "
                             "under crashes + loss spikes")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="report: also write the metrics registry "
                             "in Prometheus text format")
    parser.add_argument("--baseline", metavar="PATH",
                        default=bench.BASELINE_FILENAME,
                        help="bench: baseline JSON to gate against")
    parser.add_argument("--update-baseline", action="store_true",
                        help="bench: merge this run's cells into the "
                             "baseline file instead of gating against it")
    return parser


def validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject bad option values before any simulation runs.

    Exits through ``parser.error`` (status 2), so a typo costs nothing
    instead of failing after minutes of simulation.
    """
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = one per core): {args.jobs}")
    if args.repetitions is not None and args.repetitions < 1:
        parser.error(f"--repetitions must be >= 1: {args.repetitions}")
    for option, path in (("--svg", args.svg), ("--trace-out", args.trace_out),
                         ("--prom", args.prom)):
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            parser.error(f"{option}: directory {parent!r} does not exist")


def _sweep_kwargs(args, trace_out: Optional[str]) -> dict:
    """Common knobs for the sweep experiments (everything but figure3)."""
    kwargs = {"quick": args.quick, "jobs": args.jobs,
              "trace_out": trace_out}
    if args.repetitions is not None:
        kwargs["repetitions"] = args.repetitions
    if args.seed is not None:
        kwargs["seed_base"] = args.seed
    return kwargs


def _run_figure3(args, trace_out: Optional[str]) -> tuple:
    result = figure3(seed=1 if args.seed is None else args.seed,
                     trace_out=trace_out)
    return result, figure3_chart(result)


def _run_figure4(args, trace_out: Optional[str]) -> tuple:
    result = figure4(**_sweep_kwargs(args, trace_out))
    return result, figure4_chart(result)


def _run_table1(args, trace_out: Optional[str]) -> tuple:
    return table1(**_sweep_kwargs(args, trace_out)), None


def _run_figure5(args, trace_out: Optional[str]) -> tuple:
    result = figure5(**_sweep_kwargs(args, trace_out))
    return result, figure5_chart(result)


def _run_figure6(args, trace_out: Optional[str]) -> tuple:
    result = figure6(**_sweep_kwargs(args, trace_out))
    return result, figure6_chart(result)


def _run_chaos(args, trace_out: Optional[str]) -> tuple:
    if args.profile == "transport":
        result = transport_chaos(**_sweep_kwargs(args, trace_out))
        return result, transport_chaos_chart(result)
    result = chaos(**_sweep_kwargs(args, trace_out))
    return result, chaos_chart(result)


def _run_ablation(args, trace_out: Optional[str]) -> tuple:
    return ablations(**_sweep_kwargs(args, trace_out)), None


RUNNERS: dict = {
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "table1": _run_table1,
    "figure5": _run_figure5,
    "figure6": _run_figure6,
    "chaos": _run_chaos,
    "ablation": _run_ablation,
}


def run_one(name: str, args, svg_path: Optional[str],
            out: Callable[[str], None],
            trace_path: Optional[str] = None) -> None:
    started = time.time()
    result, chart = RUNNERS[name](args, trace_path)
    elapsed = time.time() - started
    out(result.format_table())
    out(f"[{name} completed in {elapsed:.1f}s]")
    if svg_path and chart is not None:
        chart.save(svg_path)
        out(f"[wrote {svg_path}]")
    elif svg_path:
        out(f"[{name} has no chart rendering; SVG skipped]")
    if trace_path:
        out(f"[wrote trace {trace_path}]")


def _run_compile(args, out: Callable[[str], None]) -> int:
    """Validate an EnviroTrack program and print its canonical form."""
    from .lang import (CompileError, LexError, ParseError, compile_source,
                       format_program, parse_source)
    if not args.source:
        out("compile: missing program file argument")
        return 2
    try:
        with open(args.source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        out(f"compile: cannot read {args.source}: {exc}")
        return 2
    try:
        program = parse_source(text)
        definitions = compile_source(text)
    except (LexError, ParseError, CompileError) as exc:
        out(f"{args.source}: {exc}")
        return 1
    out(format_program(program).rstrip())
    names = ", ".join(definition.name for definition in definitions)
    out(f"\n[ok: {len(definitions)} context type(s): {names}]")
    return 0


def _run_bench(args, out: Callable[[str], None]) -> int:
    """Run the four microbenches; gate each against the baseline."""
    baseline = None
    if not args.update_baseline:
        if os.path.exists(args.baseline):
            baseline = bench.load(args.baseline)
        else:
            out(f"[no baseline at {args.baseline}; run with "
                f"--update-baseline to create one]")
    status = 0
    recorded = []
    for name, run in (
            ("medium", lambda: bench.bench_medium(
                quick=args.quick, trace_out=args.trace_out)),
            ("mtp", bench.bench_mtp),
            ("engine", lambda: bench.bench_engine(quick=args.quick))):
        cells = run()
        out(bench.format_table(cells))
        recorded += cells
        if baseline is not None:
            ok, message = bench.check(name, cells, baseline)
            out(f"[{name} gate vs {args.baseline}: {message}]")
            status |= not ok
    if args.trace_out:
        out(f"[wrote trace {args.trace_out}]")
    for attempt in range(bench.OVERHEAD_TRIES):
        cells = bench.bench_telemetry_overhead()
        out(bench.format_table(cells))
        ok, message = bench.check("overhead", cells, [])
        if ok or attempt == bench.OVERHEAD_TRIES - 1:
            break
        out(f"[overhead gate: {message}; retrying]")
    out(f"[overhead gate: {message}]")
    status |= not ok
    if args.update_baseline:
        bench.save(args.baseline, recorded)
        out(f"[wrote baseline {args.baseline}]")
    return status


def _run_report(args, out: Callable[[str], None]) -> int:
    """Render a run report from a saved trace or a fresh live run."""
    from .telemetry.report import RunReport
    if args.source:
        try:
            report = RunReport.from_trace_file(args.source)
        except (OSError, ValueError) as exc:
            out(f"report: cannot load {args.source}: {exc}")
            return 2
    else:
        from .experiments.scenarios import TankScenario, build_app
        from .radio import reset_frame_ids
        from .sim import dump_trace
        scenario = TankScenario(columns=8 if args.quick else 12, rows=2,
                                seed=1 if args.seed is None
                                else args.seed)
        reset_frame_ids()
        app = build_app(scenario)
        app.sim.enable_profiler()
        app.install()
        app.run(until=scenario.duration)
        report = RunReport.from_sim(
            app.sim, title=f"tracker run (seed {scenario.seed})")
        if args.trace_out:
            dump_trace(app.sim, args.trace_out)
            out(f"[wrote trace {args.trace_out}]")
    # Artifacts first: a truncated stdout (e.g. piping into `head`)
    # must not lose the requested files to a BrokenPipeError.
    if args.svg:
        report.save_dashboard(args.svg)
    if args.prom:
        report.save_prometheus(args.prom)
    out(report.format_text())
    if args.svg:
        out(f"[wrote dashboard {args.svg}]")
    if args.prom:
        out(f"[wrote metrics {args.prom}]")
    return 0


def main(argv=None, out: Callable[[str], None] = print) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    if args.experiment == "compile":
        return _run_compile(args, out)
    if args.experiment == "bench":
        return _run_bench(args, out)
    if args.experiment == "report":
        return _run_report(args, out)
    if args.experiment == "all":
        out_dir = args.out_dir
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for name in EXPERIMENTS:
            svg_path = (os.path.join(out_dir, f"{name}.svg")
                        if out_dir else None)
            trace_path = None
            if args.trace_out:
                if out_dir:
                    trace_path = os.path.join(out_dir,
                                              f"{name}.trace.jsonl")
                else:
                    out(f"[--trace-out with 'all' needs --out-dir; "
                        f"skipping trace for {name}]")
            run_one(name, args, svg_path, out, trace_path)
            out("")
        return 0
    run_one(args.experiment, args, args.svg, out, args.trace_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
