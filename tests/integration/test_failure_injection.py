"""Failure-injection integration tests.

Sensor networks "must not depend on the correctness or availability of any
particular node" — these tests kill leaders, black out the radio, and
corrupt frames, and assert tracking survives.
"""

from repro.experiments import TankScenario, run_tank_scenario
from repro.groups import GroupConfig, GroupManager, HEARTBEAT_KIND, Role
from repro.radio import BROADCAST, Frame
from repro.sensing import SensorField
from repro.sim import Simulator


def test_repeated_leader_kills_do_not_break_coherence():
    scenario = TankScenario(seed=17, columns=14,
                            leader_kill_times=(20.0, 45.0, 70.0))
    result = run_tank_scenario(scenario)
    assert result.handovers.takeovers >= 2
    assert result.coherent
    # Every kill finds a live leader: three crashes, three distinct nodes.
    victims = [rec.node for rec in result.app.sim.trace
               if rec.category == "node.fail"]
    assert len(victims) == 3
    assert len(set(victims)) == 3


def test_killed_leaders_stop_leading():
    """A crashed leader's tenure ends at its ``node.fail``: led time fits
    in the run and the three kills leave visible coverage holes."""
    scenario = TankScenario(seed=12, leader_kill_times=(12.0, 20.0, 28.0))
    result = run_tank_scenario(scenario)
    (led,) = result.handovers.label_led_time.values()
    assert led < scenario.duration
    assert 0.99 <= result.coverage < 1.0
    assert result.coherent


def test_radio_blackout_and_recovery():
    """Disable the whole medium mid-run; the group re-forms on the same
    label via wait memory or a fresh one after memory expires — either
    way, tracking resumes."""
    sim = Simulator(seed=23)
    field = SensorField(sim, communication_radius=6.0)
    sensing = {2, 3}
    managers = {}
    for i in range(6):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing,
                      GroupConfig(heartbeat_period=0.5))
        manager.start()
        managers[i] = manager
    sim.run(until=3.0)
    assert sum(m.role("t") is Role.LEADER for m in managers.values()) == 1

    # Blackout: every port disabled (no frame is received by anyone).
    for node_id in field.medium.node_ids():
        field.medium.port(node_id).enabled = False
    sim.run(until=10.0)
    # Both sensors now believe they lead (receive timers expired).
    leaders = [n for n, m in managers.items() if m.role("t") is Role.LEADER]
    assert len(leaders) >= 1

    # Radio restored: yield/suppression converge back to one leader.
    for node_id in field.medium.node_ids():
        field.medium.port(node_id).enabled = True
    sim.run(until=20.0)
    leaders = [n for n, m in managers.items() if m.role("t") is Role.LEADER]
    assert len(leaders) == 1


def test_garbage_frames_do_not_crash_protocols():
    sim = Simulator(seed=29)
    field = SensorField(sim, communication_radius=6.0)
    sensing = {1}
    managers = {}
    for i in range(3):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing,
                      GroupConfig(heartbeat_period=0.5))
        manager.start()
        managers[i] = manager
    sim.run(until=2.0)
    # Inject malformed heartbeat payloads of every shape.
    attacker = field.motes[2]
    for payload in ({}, {"context_type": "t"},
                    {"context_type": "t", "label": 5, "leader": "x",
                     "weight": [], "seq": None},
                    {"context_type": "nope", "label": "t#1.1",
                     "leader": 1, "weight": 0, "seq": 1}):
        attacker.send(Frame(src=2, dst=BROADCAST, kind=HEARTBEAT_KIND,
                            payload=payload))
    sim.run(until=6.0)  # must not raise
    assert managers[1].role("t") is Role.LEADER


def test_majority_of_nodes_dead_still_tracks():
    """Kill every other mote: redundancy carries the tracking."""
    scenario = TankScenario(seed=31, columns=14, rows=3,
                            sensing_radius=1.5)
    from repro.experiments.scenarios import build_app
    app = build_app(scenario)
    app.install()
    for node_id in list(app.field.motes):
        if node_id % 2 == 1 and (app.base_station is None
                                 or node_id != app.base_station.node_id):
            app.field.fail_node(node_id)
    app.run(until=scenario.duration)
    from repro.metrics import analyze_handovers
    stats = analyze_handovers(app.sim, "tracker", grace=1.5)
    assert stats.effective_labels(), "tracking never formed"
    assert app.base_station.reports, "no reports reached the pursuer"
