"""Tests for --trace-out plumbing, the report CLI, and the overhead gate."""

import xml.dom.minidom

import pytest

from repro.cli import main
from repro.experiments import TankScenario, dump_scenario_trace
from repro.experiments.bench import BENCHES, Cell, check, format_table
from repro.experiments.scenarios import run_tank_scenario
from repro.sim import load_trace, trace_digest


class TestDumpScenarioTrace:
    def test_dump_matches_a_direct_run(self, tmp_path):
        scenario = TankScenario(columns=6, rows=2, seed=11)
        path = tmp_path / "scenario.jsonl"
        count = dump_scenario_trace(scenario, str(path))
        assert count > 0
        dumped = load_trace(str(path))
        direct = run_tank_scenario(scenario).app.sim
        assert trace_digest(dumped) == trace_digest(direct)


class TestCliTraceOut:
    def test_figure3_writes_trace(self, tmp_path):
        trace_path = tmp_path / "figure3.jsonl"
        lines = []
        assert main(["figure3", "--trace-out", str(trace_path)],
                    out=lines.append) == 0
        assert trace_path.exists()
        assert load_trace(str(trace_path))
        assert any("wrote trace" in line for line in lines)

    def test_table1_quick_writes_trace(self, tmp_path):
        trace_path = tmp_path / "table1.jsonl"
        assert main(["table1", "--quick", "--trace-out",
                     str(trace_path)], out=lambda _: None) == 0
        assert load_trace(str(trace_path))

    def test_report_from_saved_trace(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        scenario = TankScenario(columns=6, rows=2, seed=11)
        dump_scenario_trace(scenario, str(trace_path))
        svg_path = tmp_path / "dash.svg"
        prom_path = tmp_path / "metrics.prom"
        lines = []
        assert main(["report", str(trace_path), "--svg", str(svg_path),
                     "--prom", str(prom_path)], out=lines.append) == 0
        xml.dom.minidom.parse(str(svg_path))
        assert "repro_trace_records_total" in prom_path.read_text()
        assert any("gm" in line for line in lines)

    def test_report_missing_file_exits_2(self):
        assert main(["report", "/nonexistent/trace.jsonl"],
                    out=lambda _: None) == 2

    def test_report_live_quick_run(self, tmp_path):
        trace_path = tmp_path / "live.jsonl"
        lines = []
        assert main(["report", "--quick", "--trace-out",
                     str(trace_path)], out=lines.append) == 0
        assert load_trace(str(trace_path))
        output = "\n".join(lines)
        assert "handler" in output  # live runs profile the event loop


def _overhead(off_seconds, on_seconds):
    return [Cell("overhead", {"nodes": 100, "frames": 200, "repeats": 5},
                 seconds={"off": off_seconds, "on": on_seconds})]


class TestOverheadGate:
    def test_ratio_and_within(self):
        [cell] = _overhead(1.0, 1.04)
        assert cell.ratio == pytest.approx(1.04)
        assert check("overhead", [cell], [])[0]
        ok, message = check("overhead", _overhead(1.0, 1.2), [])
        assert not ok and "REGRESSION" in message

    def test_zero_off_time_is_neutral(self):
        [cell] = _overhead(0.0, 0.5)
        assert cell.ratio == 1.0

    def test_factor_is_five_percent(self):
        assert BENCHES["overhead"].factor == pytest.approx(1.05)

    def test_format_table_mentions_ratio(self):
        table = format_table(_overhead(1.0, 1.03))
        assert "1.030x" in table
        assert "telemetry" in table
