"""Parallel multi-seed sweep driver.

Every figure/table/chaos experiment is a sweep of independent simulation
runs, each fully determined by a frozen, picklable task description (a
:class:`~repro.experiments.scenarios.TankScenario`, a speed-search cell,
a chaos cell).  This module fans those runs out over a ``multiprocessing``
worker pool — one worker per task, ordered result merge — so wall-clock
time divides by the core count while results stay **byte-identical** to a
serial sweep:

* each run builds its own :class:`~repro.sim.Simulator` seeded from the
  task, so no randomness crosses process boundaries;
* frame ids restart per run (:func:`repro.radio.reset_frame_ids`), so a
  run's trace does not depend on which process executed it or what ran
  before;
* ``pool.map`` preserves task order, so folds over outcomes see the same
  sequence a serial loop would.

Workers return :class:`ScenarioOutcome` — a reduced, picklable summary of
a run (a live ``TankRunResult`` holds the whole app object graph and
cannot cross a process boundary).  The outcome includes the run's
:func:`~repro.sim.trace_digest`, which the determinism suite uses to
assert serial == parallel == repeated execution.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..metrics import CommunicationMetrics
from ..sim import derive_seed, dump_trace, trace_digest
from .scenarios import TankRunResult, TankScenario, run_tank_scenario

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything the sweep analyses need from one tank-scenario run,
    reduced to plain picklable data plus a whole-trace digest."""

    scenario: TankScenario
    successful_handovers: int
    failed_handovers: int
    labels_created: int
    effective_labels: int
    takeovers: int
    suppressions: int
    coherent: bool
    coverage: float
    communication: CommunicationMetrics
    trace_digest: str


def reduce_run(run: TankRunResult) -> ScenarioOutcome:
    """Collapse a live run result into its picklable outcome."""
    return ScenarioOutcome(
        scenario=run.scenario,
        successful_handovers=run.handovers.successful_handovers,
        failed_handovers=run.handovers.failed_handovers,
        labels_created=run.handovers.labels_created,
        effective_labels=len(run.handovers.effective_labels()),
        takeovers=run.handovers.takeovers,
        suppressions=run.handovers.suppressions,
        coherent=run.coherent,
        coverage=run.coverage,
        communication=run.communication,
        trace_digest=trace_digest(run.app.sim),
    )


def handover_success_pct(outcomes: Sequence[ScenarioOutcome]) -> float:
    """Percent of handovers that preserved the label, pooled over runs
    (0 when none happened)."""
    successes = sum(o.successful_handovers for o in outcomes)
    total = successes + sum(o.failed_handovers for o in outcomes)
    return 100.0 * successes / total if total else 0.0


def run_scenario_outcome(scenario: TankScenario) -> ScenarioOutcome:
    """Worker entry point: run one scenario, return its outcome."""
    return reduce_run(run_tank_scenario(scenario))


def derive_run_seed(base: int, *parts: object) -> int:
    """Deterministic per-run seed from a sweep base and task coordinates.

    Stable across interpreter runs and PYTHONHASHSEED settings (SHA-256
    underneath), and independent of sweep enumeration order — the same
    (base, coordinates) always names the same universe.
    """
    return derive_seed(base, ":".join(str(part) for part in parts)) \
        % (2 ** 63)


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: every available core."""
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], tasks: Iterable[T],
                 jobs: Optional[int] = 1) -> List[R]:
    """Ordered map over picklable tasks.

    ``jobs <= 1`` (or a single task) runs inline in this process — the
    serial reference path.  Otherwise a worker pool of ``min(jobs,
    len(tasks))`` processes maps with chunksize 1 (worker-per-task) and
    the results come back in task order.  ``jobs=None``/``0`` means one
    worker per core.
    """
    task_list = list(tasks)
    if not jobs:
        jobs = default_jobs()
    if jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    with context.Pool(processes=min(jobs, len(task_list))) as pool:
        return pool.map(fn, task_list, chunksize=1)


def run_scenarios(scenarios: Sequence[TankScenario],
                  jobs: Optional[int] = 1) -> List[ScenarioOutcome]:
    """Run a batch of scenarios (worker-per-seed), outcomes in order."""
    return parallel_map(run_scenario_outcome, scenarios, jobs=jobs)


def dump_scenario_trace(scenario: TankScenario, path: str) -> int:
    """Write one sweep scenario's full trace to a JSONL file.

    Live runs cannot cross a process boundary, so sweep experiments
    honour ``--trace-out`` by deterministically rerunning one
    representative scenario in this process — frame ids reset per run,
    so the rerun's trace is byte-identical to what the sweep's worker
    produced.  Returns the record count written.
    """
    run = run_tank_scenario(scenario)
    return dump_trace(run.app.sim, path)
