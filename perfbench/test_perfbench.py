"""Self-tests for the benchmark: metric catalogue and determinism.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.load()

from catalogue import END_TO_END, LAYER_METRICS, LAYERS  # noqa: E402
from repro.node import Mote  # noqa: E402
from run import layer_values  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_unit  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_unique():
    names = ([m.name for m in END_TO_END] + [m.name for m in LAYER_METRICS]
             + list(WORKLOADS))
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS]


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    end_to_end = {m.name for m in END_TO_END}
    for metric in LAYER_METRICS:
        assert metric.moves and set(metric.moves) <= end_to_end, metric
        assert metric.on and set(metric.on) <= set(WORKLOADS), metric
        assert metric.role in ("cost", "guard"), metric


def test_every_layer_has_a_self_time():
    self_times = {m.layer for m in LAYER_METRICS
                  if m.name.endswith(".self_s")}
    assert self_times == set(LAYERS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_deterministic_and_tracing_is_neutral(name):
    workload = WORKLOADS[name]
    original = Mote.__dict__["register_handler"]
    first = run_unit(workload, seed=7, size="tiny")
    second = run_unit(workload, seed=7, size="tiny")
    tracer = Tracer()
    traced = run_unit(workload, seed=7, size="tiny", tracer=tracer)
    assert Mote.__dict__["register_handler"] is original
    assert not first.problems and not traced.problems
    assert first.attempted >= 1 and first.digests
    assert first.digests == second.digests == traced.digests
    assert first.counts == second.counts == traced.counts
    values, _ = layer_values(traced, tracer, first.wall_ref, 1.0)
    assert {m.name for m in LAYER_METRICS} <= set(values)
    assert values["sim.events"] > 0 and values["sim.self_s"] > 0
    self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(traced.wall_ref)
    assert values["other.self_s"] >= 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field-500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
