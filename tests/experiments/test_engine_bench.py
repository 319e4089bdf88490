"""The engine timer-churn bench and its regression gate."""

import pytest

from repro.experiments.bench import BENCHES, Cell, bench_engine, check, \
    load, save


def _point(nodes=500, duration=20.0, lazy=1.0, heap=5.0,
           events=1000, expiries=40, compactions=0):
    return Cell("engine", {"nodes": nodes, "duration": duration},
                seconds={"lazy": lazy, "heap": heap},
                counts={"events_fired": events, "expiries": expiries,
                        "compactions": compactions})


def test_small_sweep_runs_and_verifies_digests(tmp_path):
    trace = tmp_path / "churn.jsonl"
    [cell] = bench_engine(sizes=(16,), duration=2.0,
                          trace_out=str(trace))
    assert cell.key == {"nodes": 16, "duration": 2.0}
    assert cell.counts["events_fired"] > 0
    assert cell.counts["expiries"] > 0
    assert cell.seconds["lazy"] > 0 and cell.seconds["heap"] > 0
    assert trace.exists() and trace.stat().st_size > 0
    # Same seed, same workload: counts are reproducible.
    [again] = bench_engine(sizes=(16,), duration=2.0)
    assert again.counts == cell.counts


def test_save_load_roundtrip(tmp_path):
    result = [_point(nodes=100), _point(nodes=100, duration=6.0),
              _point(nodes=500)]
    path = tmp_path / "BENCH.json"
    save(str(path), result)
    by_key = lambda cell: sorted(cell.key.items())  # noqa: E731
    assert sorted(load(str(path)), key=by_key) == sorted(result, key=by_key)


def test_gate_passes_within_factor():
    ok, message = check("engine",
                        [_point(lazy=1.0, heap=3.0)],   # 3.0x measured
                        [_point(lazy=1.0, heap=5.0)])   # 5.0x, floor 2.5
    assert ok and "ok" in message


def test_gate_fails_below_speedup_floor():
    ok, message = check("engine",
                        [_point(lazy=1.0, heap=2.0)],   # 2.0x measured
                        [_point(lazy=1.0, heap=5.0)])   # floor 2.5x
    assert not ok and "REGRESSION" in message


def test_gate_fails_on_count_drift():
    ok, message = check("engine", [_point(events=1001)],
                        [_point(events=1000)])
    assert not ok and "COUNT DRIFT" in message
    ok, message = check("engine", [_point(expiries=41)],
                        [_point(expiries=40)])
    assert not ok and "COUNT DRIFT" in message


def test_gate_quick_cells_check_counts_exactly():
    # Baseline holds full + quick cells; a quick run must be count-gated
    # against the matching quick cells and ratio-gated at the largest
    # common node count.
    baseline = [_point(nodes=100, duration=20.0, events=4000),
                _point(nodes=100, duration=6.0, events=1200),
                _point(nodes=500, duration=20.0, events=20000),
                _point(nodes=500, duration=6.0, events=6000)]
    quick_ok = [_point(nodes=100, duration=6.0, events=1200),
                _point(nodes=500, duration=6.0, events=6000)]
    ok, _ = check("engine", quick_ok, baseline)
    assert ok
    quick_drift = [_point(nodes=100, duration=6.0, events=1200),
                   _point(nodes=500, duration=6.0, events=6001)]
    ok, message = check("engine", quick_drift, baseline)
    assert not ok and "COUNT DRIFT" in message


def test_gate_ignores_counts_for_unmatched_durations():
    # A custom-duration run can't be count-compared, but the speedup
    # ratio still gates against the baseline's largest cell.
    baseline = [_point(duration=20.0, events=20000)]
    custom = [_point(duration=7.5, events=123, lazy=1.0, heap=4.0)]
    ok, _ = check("engine", custom, baseline)
    assert ok
    slow = [_point(duration=7.5, events=123, lazy=1.0, heap=2.0)]
    ok, message = check("engine", slow, baseline)
    assert not ok and "REGRESSION" in message


def test_gate_requires_common_sizes():
    ok, message = check("engine", [_point(nodes=100)],
                        [_point(nodes=500)])
    assert not ok and "common" in message


def test_regression_factor_matches_acceptance_criterion():
    # The issue's bar: >= 2x speedup at 500 nodes.  The committed
    # baseline is ~5x, so the ratio floor (baseline / factor) keeps the
    # gate at or above the acceptance threshold.
    assert BENCHES["engine"].factor == pytest.approx(2.0)
