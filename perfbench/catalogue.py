"""Every metric the benchmark reports, with what it should move and where.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``).  Each per-layer row names
the end-to-end metric it should move and the workloads on which it
should move it — the prediction a change to that layer is judged
against.  ``role`` is ``"cost"`` for work or time a faster layer
lowers, and ``"guard"`` for a simulated outcome that a change meant
only to speed up the simulator must leave exactly as it was.

``BENCHMARK.json`` lists the same names, units and directions; the
self-tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

FIG5 = "fig5-stress"
FIELD = "field-500"
CHAOS = "transport-chaos"
WORKLOADS = (FIG5, FIELD, CHAOS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: Tuple[str, ...]
    on: Tuple[str, ...]
    role: str
    source: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def exact(self) -> bool:
        """A deterministic count or simulated quantity, not a host time."""
        return self.unit not in ("s", "us") and "overhead" not in self.name


#: Host times are reported at the reference host speed (calibration.py);
#: the run prints them as measured too.
END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "host time from installed deployment(s) to finished results: "
             "every Simulator.run plus post-run analysis, per workload "
             "unit, at reference speed"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host time to build and install the deployment(s), per "
             "workload unit, at reference speed"),
    EndToEnd("sim_rate", "sim_s/s", "higher", 0.25,
             "simulated seconds advanced per host second inside "
             "Simulator.run, at reference speed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the process running the workload"),
)

_ALL = WORKLOADS
_WALL = ("wall_s",)
_RATE = ("wall_s", "sim_rate")


def _m(name, unit, better, moves, on, role, source) -> LayerMetric:
    return LayerMetric(name, unit, better, tuple(moves), tuple(on), role,
                       source)


LAYER_METRICS = (
    _m("sim.events", "count", "lower", _RATE, _ALL, "cost",
       "Simulator.events_fired"),
    _m("sim.compactions", "count", "lower", _RATE, _ALL, "cost",
       "Simulator.compactions"),
    _m("sim.host_us_per_event", "us", "lower", _RATE, (FIG5, FIELD), "cost",
       "sim.self_s / sim.events"),
    _m("sim.self_s", "s", "lower", _RATE, (FIG5, FIELD), "cost",
       "traced Simulator.run minus its dispatch spans"),
    _m("sim.timer_arms", "count", "lower", _WALL, (FIG5,), "cost",
       "calls of TimerService.arm"),
    _m("node.cpu_tasks", "count", "lower", _WALL, (FIELD, FIG5), "cost",
       "sum of Cpu.executed"),
    _m("node.cpu_drops", "count", "lower", _WALL, (FIELD, FIG5), "guard",
       "sum of Cpu.dropped"),
    _m("node.cpu_wait_ms", "ms", "lower", _WALL, (FIG5,), "guard",
       "mean Cpu.mean_latency() over motes, simulated time"),
    _m("node.cpu_util", "ratio", "lower", _WALL, (FIG5,), "guard",
       "mean Cpu.utilization() over motes, simulated time"),
    _m("node.self_s", "s", "lower", _WALL, (FIELD,), "cost",
       "cpu.service and mote-timer dispatch minus handler spans"),
    _m("sensing.reads", "count", "lower", _RATE, (FIELD,), "cost",
       "calls of Mote.read_sensor"),
    _m("sensing.self_s", "s", "lower", _RATE, (FIELD,), "cost",
       "spans of Mote.read_sensor"),
    _m("radio.frames_sent", "count", "lower", _WALL, (FIG5,), "guard",
       "Medium.stats.frames_sent"),
    _m("radio.reception_attempts", "count", "lower", _WALL, (FIG5,), "guard",
       "sum of Medium.stats.reception_attempts_by_kind"),
    _m("radio.collisions", "count", "lower", _WALL, (FIG5,), "guard",
       "Medium.stats.receptions_dropped['collision']"),
    _m("radio.rx_ratio", "ratio", "higher", _WALL, (FIG5,), "guard",
       "frames_received / reception attempts"),
    _m("radio.self_s", "s", "lower", _WALL, (FIG5,), "cost",
       "radio.delivery and mac.* dispatch, Medium.transmit/channel_busy/"
       "neighbors_of spans"),
    _m("groups.heartbeats", "count", "lower", _WALL, (FIG5,), "guard",
       "Medium.stats.sent_by_kind['gm.heartbeat']"),
    _m("groups.rebroadcasts", "count", "lower", _WALL, (FIG5,), "guard",
       "dispatched gm.rebroadcast events"),
    _m("groups.takeovers", "count", "lower", _WALL, (FIG5,), "guard",
       "gm.takeover trace records"),
    _m("groups.labels_created", "count", "lower", _WALL, (FIG5,), "guard",
       "gm.label_created trace records"),
    _m("groups.coherent_probes", "count", "higher", _WALL, (FIG5,), "guard",
       "TankRunResult.coherent over the probe ladder"),
    _m("groups.self_s", "s", "lower", _WALL, (FIG5,), "cost",
       "gm.* dispatch, repro.groups handler and timer spans"),
    _m("aggregation.reports_added", "count", "lower", _WALL, (FIELD,),
       "cost", "calls of AggregateStore.add_report"),
    _m("aggregation.reads", "count", "lower", _WALL, (FIELD,), "cost",
       "calls of AggregateStore.read"),
    _m("aggregation.self_s", "s", "lower", _WALL, (FIELD,), "cost",
       "spans of AggregateStore.add_report/read"),
    _m("core.base_reports", "count", "higher", _WALL, (FIELD,), "guard",
       "len(BaseStation.reports)"),
    _m("core.self_s", "s", "lower", _WALL, (FIELD,), "cost",
       "etrack.* dispatch, repro.core handler and timer spans"),
    _m("naming.registers", "count", "lower", _WALL, (CHAOS,), "cost",
       "calls of DirectoryService.register"),
    _m("naming.lookups", "count", "lower", _WALL, (CHAOS,), "cost",
       "calls of DirectoryService.lookup"),
    _m("naming.lookup_timeouts", "count", "lower", _WALL, (CHAOS,), "guard",
       "repro_dir_lookup_timeouts_total"),
    _m("naming.self_s", "s", "lower", _WALL, (CHAOS,), "cost",
       "dir.* dispatch, DirectoryService.register/lookup and repro.naming "
       "handler spans"),
    _m("transport.invocations", "count", "higher", _WALL, (CHAOS,), "guard",
       "sum of TransportOutcome.sent"),
    _m("transport.retransmits", "count", "lower", _WALL, (CHAOS,), "guard",
       "sum of TransportOutcome.retransmits"),
    _m("transport.acks", "count", "lower", _WALL, (CHAOS,), "guard",
       "sum of TransportOutcome.acks"),
    _m("transport.dead_letters", "count", "lower", _WALL, (CHAOS,), "guard",
       "sum of TransportOutcome.dead_letters"),
    _m("transport.duplicates", "count", "lower", _WALL, (CHAOS,), "guard",
       "sum of TransportOutcome.duplicates"),
    _m("transport.raw_delivery_ratio", "ratio", "higher", _WALL, (CHAOS,),
       "guard", "TransportChaosResult.delivery_ratio('raw')"),
    _m("transport.route_steps", "count", "lower", _WALL, (CHAOS,), "cost",
       "calls of GeoRouter.route_to_point/route_to_node"),
    _m("transport.self_s", "s", "lower", _WALL, (CHAOS,), "cost",
       "mtp.* dispatch, GeoRouter.route_to_*, MtpAgent.invoke and "
       "repro.transport handler spans"),
    _m("faults.injected", "count", "lower", _WALL, (CHAOS,), "guard",
       "fault.* trace records, skipped faults excluded"),
    _m("faults.self_s", "s", "lower", _WALL, (CHAOS,), "cost",
       "fault.* dispatch spans"),
    _m("telemetry.spans", "count", "lower", ("peak_rss_mb",), (FIG5,),
       "cost", "len(Simulator.spans)"),
    _m("telemetry.trace_records", "count", "lower", ("peak_rss_mb",),
       (FIG5,), "cost", "len(Simulator.trace)"),
    _m("telemetry.overhead_ratio", "ratio", "lower", _WALL, (FIG5, FIELD),
       "cost", "untraced wall_s telemetry on / off, interleaved pairs"),
    _m("metrics.self_s", "s", "lower", _WALL, (FIG5,), "cost",
       "spans of analyze_handovers, tracking_coverage, "
       "communication_metrics, compare_track"),
    _m("other.self_s", "s", "lower", _WALL, _ALL, "cost",
       "traced wall minus the sum of layer self times"),
    _m("trace.overhead_ratio", "ratio", "lower", _WALL, _ALL, "cost",
       "traced wall / untraced wall"),
)

#: Layers whose self time the tracer attributes, in report order.
LAYERS = tuple(dict.fromkeys(m.layer for m in LAYER_METRICS
                             if m.name.endswith(".self_s")))
