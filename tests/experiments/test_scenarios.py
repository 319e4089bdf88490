"""Tests for the evaluation scenario builders."""

import pytest

from repro.experiments import (SPEED_33_KMH, SPEED_50_KMH, TankScenario,
                               build_app, build_tracker_definition,
                               run_tank_scenario)
from repro.groups import GroupConfig


class TestScenarioGeometry:
    def test_paper_speed_constants(self):
        # 10 s/hop and 15 s/hop at the 1000:1 / 140 m scale.
        assert SPEED_50_KMH == pytest.approx(0.1)
        assert SPEED_33_KMH == pytest.approx(1.0 / 15.0)

    def test_entry_exit_times(self):
        scenario = TankScenario(columns=12, speed=0.1, start_margin=1.5,
                                sensing_radius=1.0)
        assert scenario.entry_time == pytest.approx(5.0)
        assert scenario.exit_time == pytest.approx((1.5 + 11 + 1.0) / 0.1)
        assert scenario.duration > scenario.exit_time

    def test_track_y_between_rows(self):
        assert TankScenario(rows=2).track_y == pytest.approx(0.5)
        assert TankScenario(rows=5).track_y == pytest.approx(2.0)

    def test_with_helpers(self):
        scenario = TankScenario()
        assert scenario.with_speed(2.0).speed == 2.0
        assert scenario.with_seed(9).seed == 9


class TestBuildApp:
    def test_deploys_grid_and_target(self):
        scenario = TankScenario(columns=6, rows=2)
        app = build_app(scenario)
        # 12 motes + base station.
        assert len(app.field.motes) == 13
        target = app.field.target("tank")
        assert target.kind == "vehicle"
        x0, y0 = target.position(0.0)
        assert x0 == pytest.approx(-scenario.start_margin)
        assert y0 == pytest.approx(scenario.track_y)

    def test_jittered_deployment(self):
        scenario = TankScenario(columns=6, rows=2, deployment_jitter=0.3,
                                with_base_station=False)
        app = build_app(scenario)
        offsets = [abs(mote.position[0] - round(mote.position[0]))
                   for mote in app.field.mote_list()]
        assert any(offset > 0.01 for offset in offsets)

    def test_tracker_definition_matches_scenario(self):
        scenario = TankScenario(heartbeat_period=0.25, confidence=3,
                                freshness=2.0, relinquish=False,
                                receive_ratio=1.2, wait_ratio=8.0,
                                weight_suppression=False)
        definition = build_tracker_definition(scenario)
        assert definition.group.heartbeat_period == 0.25
        assert not definition.group.relinquish
        assert definition.group.receive_ratio == 1.2
        assert definition.group.wait_ratio == 8.0
        assert definition.group.suppression_range == 0.0
        spec = definition.aggregate("location")
        assert spec.confidence == 3
        assert spec.freshness == 2.0

    def test_default_scenario_keeps_group_defaults(self):
        scenario = TankScenario()
        group = build_tracker_definition(scenario).group
        assert group.receive_ratio == GroupConfig.receive_ratio
        assert group.wait_ratio == GroupConfig.wait_ratio
        assert group.suppression_range == 2.0 * scenario.sensing_radius + 0.5
        assert group == GroupConfig()


class TestRunResult:
    def test_result_structure(self):
        result = run_tank_scenario(TankScenario(columns=8, seed=2))
        assert result.handovers.labels_created >= 1
        assert 0.0 <= result.coverage <= 1.0
        assert result.communication.frames_sent > 0
        assert result.comparison is not None

    def test_determinism(self):
        a = run_tank_scenario(TankScenario(columns=8, seed=5))
        b = run_tank_scenario(TankScenario(columns=8, seed=5))
        assert a.communication == b.communication
        assert a.handovers.labels_created == b.handovers.labels_created
        assert a.coverage == b.coverage

    def test_leader_kill_injection(self):
        scenario = TankScenario(columns=8, seed=2,
                                leader_kill_times=(20.0,))
        result = run_tank_scenario(scenario)
        fails = list(result.app.sim.trace_records("node.fail"))
        assert len(fails) == 1
