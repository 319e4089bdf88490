"""The common bench record: baseline merging, the medium gate, and the
``repro bench`` CLI path with the bench runners replaced by fixed cells
(deterministic, no wall-clock gate)."""

import json

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import BENCHES, Cell, check, load, save


def _medium(nodes=500, frames=400, grid=1.0, bruteforce=5.0):
    return Cell("medium", {"nodes": nodes, "frames": frames},
                seconds={"grid": grid, "bruteforce": bruteforce})


def _engine(duration, events):
    return Cell("engine", {"nodes": 500, "duration": duration},
                seconds={"lazy": 1.0, "heap": 5.0},
                counts={"events_fired": events, "expiries": 40,
                        "compactions": 0})


def test_medium_gate_floor_is_half_the_baseline_speedup():
    assert BENCHES["medium"].factor == pytest.approx(2.0)
    ok, message = check("medium", [_medium(bruteforce=2.6)], [_medium()])
    assert ok and "floor 2.50x" in message
    ok, message = check("medium", [_medium(bruteforce=2.4)], [_medium()])
    assert not ok and "REGRESSION" in message


def test_medium_gate_compares_at_largest_common_size():
    baseline = [_medium(nodes=100, bruteforce=1.4), _medium(nodes=500)]
    ok, message = check("medium", [_medium(nodes=100, bruteforce=1.0),
                                   _medium(nodes=500)], baseline)
    assert ok and message.startswith("ok — 500 nodes")
    ok, message = check("medium", [_medium(nodes=250)], baseline)
    assert not ok and "common" in message


def test_medium_gate_prefers_the_matching_frame_count():
    # A quick (120-frame) baseline cell must not stand in for the full
    # sweep's 400-frame cell, and a quick run without its own baseline
    # cell still gates against the largest one.
    baseline = [_medium(frames=120, bruteforce=2.0),
                _medium(frames=400, bruteforce=5.0)]
    ok, message = check("medium", [_medium(frames=400, bruteforce=2.2)],
                        baseline)
    assert not ok and "baseline 5.00x" in message
    ok, message = check("medium", [_medium(frames=120, bruteforce=1.2)],
                        baseline)
    assert ok and "baseline 2.00x" in message
    ok, message = check("medium", [_medium(frames=300, bruteforce=2.2)],
                        baseline)
    assert not ok and "baseline 5.00x" in message


@pytest.mark.parametrize("cell, reason", [
    (_medium(), "no common node counts"),
    (_engine(6.0, 6000), "no common node counts"),
    (Cell("mtp", {"seed": 2004}, counts={"raw_frames": 1,
                                         "reliable_frames": 2}),
     "no baseline cell"),
])
def test_baseline_gates_fail_without_baseline_cells(cell, reason):
    ok, message = check(cell.bench, [cell], [_medium(nodes=100)])
    assert not ok and reason in message


def test_save_merges_by_bench_and_key(tmp_path):
    path = str(tmp_path / "BENCH.json")
    save(path, [_engine(20.0, 20000), _medium(frames=400)])
    save(path, [_engine(6.0, 6000), _medium(frames=400, grid=2.0)])
    cells = load(path)
    assert _engine(20.0, 20000) in cells
    assert _engine(6.0, 6000) in cells
    assert [cell for cell in cells if cell.bench == "medium"] \
        == [_medium(frames=400, grid=2.0)]


def _use_fixed_runners(monkeypatch, events=None):
    """Replace the four runners; ``events`` maps duration -> count."""
    events = events or {6.0: 6000, 20.0: 20000}

    def medium(quick=False, trace_out=None):
        return [_medium(frames=120 if quick else 400)]

    def engine(quick=False):
        duration = 6.0 if quick else 20.0
        return [_engine(duration, events[duration])]

    def mtp():
        return [Cell("mtp", {"seed": 2004}, counts={
            "sent": 16, "raw_frames": 256, "reliable_frames": 597,
            "raw_delivered": 6, "reliable_delivered": 16, "retransmits": 37,
            "acks": 16, "dead_letters": 0, "duplicates": 0})]

    def overhead():
        return [Cell("overhead", {"nodes": 100, "frames": 600, "repeats": 7},
                     seconds={"off": 1.0, "on": 1.01})]

    monkeypatch.setattr(bench, "bench_medium", medium)
    monkeypatch.setattr(bench, "bench_engine", engine)
    monkeypatch.setattr(bench, "bench_mtp", mtp)
    monkeypatch.setattr(bench, "bench_telemetry_overhead", overhead)


def test_cli_bench_records_then_gates_every_bench(tmp_path, monkeypatch):
    _use_fixed_runners(monkeypatch)
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--quick", "--baseline", str(path),
                 "--update-baseline"], out=lambda _: None) == 0
    assert {cell.bench for cell in load(str(path))} \
        == {"medium", "engine", "mtp"}

    lines = []
    assert main(["bench", "--quick", "--baseline", str(path)],
                out=lines.append) == 0
    for name in ("medium", "engine", "mtp", "overhead"):
        assert sum(line.startswith(f"[{name} gate") for line in lines) == 1

    data = json.loads(path.read_text())
    for entry in data["cells"]:
        if entry["bench"] == "engine":
            entry["counts"]["events_fired"] += 1
    path.write_text(json.dumps(data))
    lines = []
    assert main(["bench", "--quick", "--baseline", str(path)],
                out=lines.append) == 1
    assert any("COUNT DRIFT" in line for line in lines)


def test_quick_refresh_keeps_full_sweep_counts_gated(tmp_path,
                                                     monkeypatch):
    _use_fixed_runners(monkeypatch)
    path = str(tmp_path / "BENCH.json")
    quiet = {"out": lambda _: None}
    assert main(["bench", "--baseline", path, "--update-baseline"],
                **quiet) == 0
    assert main(["bench", "--quick", "--baseline", path,
                 "--update-baseline"], **quiet) == 0
    # A full run whose 20 s event count drifted must still be caught.
    _use_fixed_runners(monkeypatch, events={6.0: 6000, 20.0: 20001})
    lines = []
    assert main(["bench", "--baseline", path], out=lines.append) == 1
    assert any("COUNT DRIFT" in line and "20.0s" in line
               for line in lines)


def test_cli_overhead_gate_retries_then_fails(monkeypatch, tmp_path):
    _use_fixed_runners(monkeypatch)
    calls = []

    def slow_overhead():
        calls.append(1)
        return [Cell("overhead", {"nodes": 100, "frames": 600, "repeats": 7},
                     seconds={"off": 1.0, "on": 1.2})]

    monkeypatch.setattr(bench, "bench_telemetry_overhead", slow_overhead)
    lines = []
    assert main(["bench", "--quick", "--baseline",
                 str(tmp_path / "missing.json")], out=lines.append) == 1
    assert len(calls) == bench.OVERHEAD_TRIES == 3
    assert any(line.startswith("[no baseline") for line in lines)
    assert lines[-1].startswith("[overhead gate: REGRESSION")
