"""The ``ablation`` experiment: A — h-hop heartbeat flooding past the
group perimeter (§5.2); B — receive/wait timer ratios around the paper's
2.1×/4.2× (§6.2); C — weight-based duplicate-label suppression on/off;
D — MICA-class energy of the case-study run.  A–C run on the shared
runner, D (which meters the live app) through a module-level worker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..node import EnergyMeter
from ..radio import reset_frame_ids
from .runner import (dump_scenario_trace, handover_success_pct,
                     parallel_map, run_scenarios)
from .scenarios import SPEED_50_KMH, TankScenario, build_app

FLOOD_HOPS = (0, 1, 2)
#: Ablation B settings: overrides of the scenario's timer ratios.
TIMER_SETTINGS = (
    ("paper (2.1 / 4.2)", {}),
    ("tight receive (1.2 / 4.2)", {"receive_ratio": 1.2}),
    ("loose (4.0 / 8.0)", {"receive_ratio": 4.0, "wait_ratio": 8.0}),
)
SUPPRESSION_SETTINGS = (("suppression on", True), ("suppression off", False))
#: Ablation D: case-study overrides; the second (default) sets idle drain.
ENERGY_SETTINGS = (
    ("HB 0.125s, relinquish, flood", {"heartbeat_period": 0.125}),
    ("HB 0.5s,   relinquish, flood", {}),
    ("HB 0.5s,   relinquish, no flood", {"member_rebroadcast": False}),
    ("HB 0.5s,   takeover,   flood", {"relinquish": False}),
    ("HB 2s,     relinquish, flood", {"heartbeat_period": 2.0}),
)
#: Published seed ladders (an explicit ``seed_base`` starts all four).
SEEDS = {"flooding": 90, "timers": 110, "suppression": 130, "energy": 3}


def _energy_worker(scenario: TankScenario) -> Tuple[float, float, float]:
    """Run one fully metered scenario: (active, hottest mote, idle) mJ."""
    reset_frame_ids()
    app = build_app(scenario)
    app.install()
    meter = EnergyMeter(app.sim)
    for mote in app.field.mote_list():
        meter.attach(mote)
    app.run(until=scenario.duration)
    return (1000.0 * meter.active_joules(app.sim.now),
            1000.0 * meter.max_node_joules(app.sim.now, include_idle=False),
            1000.0 * meter.breakdown(app.sim.now)["idle"])


def _means(runs, *fields) -> tuple:
    """Per-run mean of each named outcome field."""
    return tuple(sum(getattr(run, name) for run in runs) / len(runs)
                 for name in fields)


@dataclass
class AblationResult:
    """The four tables, keyed by setting.  Rows: flooding (success %,
    heartbeats/run); timers (coherent fraction, takeovers/run, labels/run);
    suppression (effective labels/run, deletions/run); energy (active,
    hottest mote's active, idle) mJ."""

    flooding: Dict[int, Tuple[float, float]]
    timers: Dict[str, Tuple[float, float, float]]
    suppression: Dict[str, Tuple[float, float]]
    energy: Dict[str, Tuple[float, float, float]]

    def format_table(self) -> str:
        a = ["Ablation A — heartbeat flood hops past the perimeter "
             "(heartbeat reach = sensing radius)",
             f"{'h':>3} {'handover success':>17} {'heartbeats/run':>15}"]
        for hops, (pct, heartbeats) in sorted(self.flooding.items()):
            a.append(f"{hops:>3} {pct:>16.1f}% {heartbeats:>15.0f}")
        b = ["Ablation B — timer ratios (takeover mode, 1 hop/s, "
             "HB 0.25s, 20% loss)",
             f"{'setting':>28} {'coherent':>9} {'takeovers':>10} "
             f"{'labels':>7}"]
        for name, (coherent, takeovers, labels) in self.timers.items():
            b.append(f"{name:>28} {coherent:>9.2f} {takeovers:>10.1f} "
                     f"{labels:>7.1f}")
        c = ["Ablation C — weight-based duplicate suppression",
             f"{'setting':>18} {'effective labels/run':>21} "
             f"{'deletions/run':>14}"]
        for name, (labels, deletions) in self.suppression.items():
            c.append(f"{name:>18} {labels:>21.1f} {deletions:>14.1f}")
        d = ["Ablation D — active radio+CPU energy of one case-study run "
             "(millijoules, fleet-wide)",
             f"{'setting':>34} {'active mJ':>10} {'hottest mJ':>11}"]
        for name, (active, hottest, _) in self.energy.items():
            d.append(f"{name:>34} {active:>10.1f} {hottest:>11.1f}")
        idle = self.energy[ENERGY_SETTINGS[1][0]][2]
        d.append(f"(idle-listening baseline over the same run: {idle:.0f} "
                 f"mJ — duty cycling, not protocol tuning, is where the "
                 f"battery goes)")
        return "\n\n".join("\n".join(table) for table in (a, b, c, d))


def ablations(quick: bool = False, jobs: int = 1, repetitions: int = 4,
              seed_base: Optional[int] = None,
              trace_out: Optional[str] = None) -> AblationResult:
    """Run Ablations A–D, ``repetitions`` seeds per A–C setting (one run
    per D setting); ``trace_out`` writes the first A run's trace."""
    if quick:
        repetitions = 1
    seeds = {name: seed if seed_base is None else seed_base
             for name, seed in SEEDS.items()}
    corridor = TankScenario(columns=12 if quick else 16, rows=3,
                            member_rebroadcast=False,
                            with_base_station=False)
    # A: sharp disk, reach = sensing radius: hearing the label is geometry.
    flooding = replace(corridor, speed=SPEED_50_KMH, heartbeat_tx_range=1.0,
                       deployment_jitter=0.25, base_loss_rate=0.03,
                       seed=seeds["flooding"])
    # B: one heartbeat copy per member, so loss hits the receive timer.
    timers = replace(corridor, speed=1.0, heartbeat_period=0.25,
                     relinquish=False, base_loss_rate=0.20,
                     seed=seeds["timers"])
    # C: marginal heartbeat reach, so duplicate labels form.
    suppression = replace(corridor, speed=1.0, relinquish=False,
                          heartbeat_tx_range=2.0, base_loss_rate=0.10,
                          seed=seeds["suppression"])
    cells = ([("flooding", hops, replace(flooding, flood_hops=hops))
              for hops in FLOOD_HOPS]
             + [("timers", name, replace(timers, **overrides))
                for name, overrides in TIMER_SETTINGS]
             + [("suppression", name,
                 replace(suppression, weight_suppression=on))
                for name, on in SUPPRESSION_SETTINGS])
    scenarios = [replace(cell, seed=cell.seed + rep)
                 for _, _, cell in cells for rep in range(repetitions)]
    outcomes = run_scenarios(scenarios, jobs=jobs)
    if trace_out:
        dump_scenario_trace(scenarios[0], trace_out)
    rows = {"flooding": lambda runs: (
                handover_success_pct(runs),
                sum(o.communication.heartbeats_sent for o in runs)
                / len(runs)),
            "timers": lambda runs: _means(runs, "coherent", "takeovers",
                                          "labels_created"),
            "suppression": lambda runs: _means(runs, "effective_labels",
                                               "suppressions")}
    tables: Dict[str, dict] = {table: {} for table in rows}
    for index, (table, name, _) in enumerate(cells):
        tables[table][name] = rows[table](
            outcomes[index * repetitions:(index + 1) * repetitions])
    energy = TankScenario(columns=8 if quick else 12, rows=2,
                          with_base_station=False, seed=seeds["energy"])
    readings = parallel_map(_energy_worker, [
        replace(energy, **overrides) for _, overrides in ENERGY_SETTINGS],
        jobs=jobs)
    return AblationResult(
        **tables,
        energy=dict(zip((name for name, _ in ENERGY_SETTINGS), readings)))
