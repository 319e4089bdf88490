"""Smoke tests for the per-figure entry points (quick mode).

What the figures should show is asserted in ``test_paper_shapes.py``;
these tests only verify the entry points produce well-formed results and
renderable tables at quick scale.
"""

from repro.experiments import figure3, figure4, figure6, table1


def test_figure3_structure():
    result = figure3(seed=2)
    table = result.format_table()
    assert "Figure 3" in table
    assert result.comparison.points
    assert result.comparison.mean_error < 1.0


def test_figure4_quick_structure():
    result = figure4(quick=True)
    assert len(result.cells) == 4
    for kmh in (33, 50):
        for propagate in (True, False):
            cell = result.cell(kmh, propagate)
            assert 0.0 <= cell.success_pct <= 100.0
    assert "Figure 4" in result.format_table()


def test_table1_quick_structure():
    result = table1(quick=True)
    assert {row.speed_kmh for row in result.rows} == {33, 50}
    for row in result.rows:
        assert row.metrics.link_utilization_pct < 50.0
        assert row.metrics.frames_sent > 0
    assert "Table 1" in result.format_table()


def test_figure6_quick_structure():
    result = figure6(quick=True)
    assert result.points
    table = result.format_table()
    assert "CR:SR" in table
    for point in result.points:
        assert point.max_speed >= 0.0
        assert point.search.evaluated
