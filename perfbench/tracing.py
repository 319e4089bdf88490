"""Timing and per-layer tracing, installed on the program from outside.

Two instruments, both put in place by patching class or module
attributes of the ``repro`` package and both removed again afterwards:

* :class:`BoundaryClock` — present in every run.  It times each
  ``Simulator`` from construction to its first ``run()`` (set-up) and
  each ``run()`` call (simulated throughput), and keeps the simulators
  and sensor fields a workload built so their counters can be read
  afterwards.  It costs two clock reads per ``run()`` call, and a
  scenario makes a handful of those.
* :class:`Tracer` — only in the traced run.  It records a span (name,
  start, end, parent) around each call into a layer: every event
  dispatch (through the public event-loop profiler hook), every frame
  handler, routed-delivery handler and mote timer callback (wrapped
  where they are registered, attributed to the package of their owner),
  and the public entry points listed in :func:`Tracer.install`.  A
  layer's self time is the duration of its spans minus the part their
  child spans cover.

Only spans between a simulator's first ``run()`` and the end of its
post-run analysis are recorded, the same window ``wall_s`` measures.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.aggregation import AggregateStore
from repro.experiments import scenarios as scenarios_module
from repro.naming import DirectoryService
from repro.node import Mote
from repro.radio import Medium
from repro.sensing import SensorField
from repro.sim import Simulator, TimerService
from repro.telemetry.profiler import normalize_label
from repro.transport import GeoRouter, MtpAgent

from catalogue import LAYERS

perf = time.perf_counter

#: Event-label prefix -> layer, for events a component scheduled directly
#: on the simulator.  Mote timer events are the node layer's whatever
#: their prefix: their dispatch only posts the callback to the mote CPU.
DISPATCH_LAYER = {
    "cpu": "node", "radio": "radio", "mac": "radio", "gm": "groups",
    "etrack": "core", "dir": "naming", "mtp": "transport",
    "geo": "transport", "fault": "faults", "timeline": "metrics",
}

#: Post-run analyses ``run_tank_scenario`` calls, by their name there.
ANALYSES = ("analyze_handovers", "tracking_coverage",
            "communication_metrics", "compare_track")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> bool:
        """Undo every replacement; True when each original is back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in saved)


class _SimRecord:
    __slots__ = ("sim", "created", "first_run")

    def __init__(self, sim: Simulator, created: float) -> None:
        self.sim = sim
        self.created = created
        self.first_run: Optional[float] = None


class BoundaryClock:
    """Set-up and run-loop timing at the ``Simulator`` boundary."""

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self.tracer = tracer
        self.records: List[_SimRecord] = []
        self.fields: List[SensorField] = []
        self.setup_seconds = 0.0
        self.run_seconds = 0.0
        self.simulated = 0.0
        self._by_sim: Dict[int, _SimRecord] = {}

    @property
    def sims(self) -> List[Simulator]:
        return [record.sim for record in self.records]

    def install(self, patches: Patches) -> None:
        clock = self
        tracer = self.tracer

        def make_init(original):
            def __init__(sim, *args, **kwargs):
                created = perf()
                if tracer is not None:
                    tracer.on = False
                original(sim, *args, **kwargs)
                record = _SimRecord(sim, created)
                clock.records.append(record)
                clock._by_sim[id(sim)] = record
                if tracer is not None:
                    tracer.attach(sim)
            return __init__

        def make_run(original):
            def run(sim, *args, **kwargs):
                started = perf()
                record = clock._by_sim[id(sim)]
                if record.first_run is None:
                    record.first_run = started
                    clock.setup_seconds += started - record.created
                    if tracer is not None:
                        tracer.on = True
                before = sim.now
                span = tracer.open_run() if tracer is not None else None
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    if span is not None:
                        tracer.close_run(span)
                    clock.run_seconds += perf() - started
                    clock.simulated += sim.now - before
            return run

        def make_field_init(original):
            def __init__(field, *args, **kwargs):
                original(field, *args, **kwargs)
                clock.fields.append(field)
            return __init__

        patches.replace(Simulator, "__init__", make_init)
        patches.replace(Simulator, "run", make_run)
        patches.replace(SensorField, "__init__", make_field_init)


def owner_layer(fn: Callable) -> str:
    """The layer a callback belongs to: the ``repro`` package of the object
    it is bound to, or of the module defining it."""
    owner = getattr(fn, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(fn, "__module__", None) or "")
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.on = False
        self.timer_arms = 0
        self._name_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        self._mote_timer_labels = set()
        self._dispatch_names: Dict[str, int] = {}
        self._run_span = -1
        self._orphans_from = 0
        #: Host time spent in the tracer's own dispatch hook, inside
        #: Simulator.run but outside every dispatch span.
        self.hook_seconds = 0.0

    # -- span store ----------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf()
        self._stack.pop()

    def open_run(self) -> Optional[int]:
        if not self.on:
            return None
        index = self.open(self.name_id("sim.run"))
        self._run_span = index
        self._orphans_from = index + 1
        return index

    def close_run(self, index: int) -> None:
        self.close(index)
        self._run_span = -1

    def spanned(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped in a span called ``name`` while recording."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return traced

    # -- event dispatch ------------------------------------------------
    def attach(self, sim: Simulator) -> None:
        """Turn on ``sim``'s profiler and record each dispatch it times.

        The engine reports a dispatch after it returns, so its span is
        written then, and the spans opened directly under the run span
        since the previous dispatch are re-parented under it.
        """
        profiler = sim.enable_profiler()
        tracer = self
        parents = self.parents

        def note(label: str, seconds: float) -> None:
            ended = perf()
            if not tracer.on:
                return
            nid = tracer._dispatch_names.get(label)
            if nid is None:
                nid = tracer._dispatch_name(label)
            run = tracer._run_span
            index = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.starts.append(ended - seconds)
            tracer.ends.append(ended)
            parents.append(run)
            for child in range(tracer._orphans_from, index):
                if parents[child] == run:
                    parents[child] = index
            tracer._orphans_from = index + 1
            tracer.hook_seconds += perf() - ended

        profiler.note = note

    def _dispatch_name(self, label: str) -> int:
        key = normalize_label(label)
        if key in self._mote_timer_labels:
            layer = "node"
        else:
            layer = DISPATCH_LAYER.get(key.split(".", 1)[0], "other")
        nid = self._dispatch_names[label] = self.name_id(
            f"{layer}.dispatch.{key}")
        return nid

    # -- wrappers ------------------------------------------------------
    def install(self, patches: Patches) -> None:
        """Wrap the layer boundaries (call after the clock's install)."""
        tracer = self

        def wrap_register_handler(original):
            def register_handler(mote, kind, handler):
                return original(mote, kind, tracer.spanned(
                    handler, f"{owner_layer(handler)}.handler.{kind}"))
            return register_handler

        def wrap_register_delivery(original):
            def register_delivery(router, inner_kind, handler):
                return original(router, inner_kind, tracer.spanned(
                    handler,
                    f"{owner_layer(handler)}.delivery.{inner_kind}"))
            return register_delivery

        def wrap_timer(original):
            signature = inspect.signature(original)

            def make_timer(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                callback = bound.arguments["callback"]
                label = bound.arguments["label"]
                tracer._mote_timer_labels.add(label)
                bound.arguments["callback"] = tracer.spanned(
                    callback, f"{owner_layer(callback)}.timer.{label}")
                return original(*bound.args, **bound.kwargs)
            return make_timer

        def wrap_arm(original):
            def arm(service, handle, delay):
                if tracer.on:
                    tracer.timer_arms += 1
                return original(service, handle, delay)
            return arm

        def span(name):
            return lambda original: tracer.spanned(original, name)

        patches.replace(Mote, "register_handler", wrap_register_handler)
        for method in ("periodic", "watchdog", "oneshot"):
            patches.replace(Mote, method, wrap_timer)
        patches.replace(GeoRouter, "register_delivery",
                        wrap_register_delivery)
        patches.replace(TimerService, "arm", wrap_arm)
        patches.replace(Mote, "read_sensor", span("sensing.read_sensor"))
        for method in ("transmit", "channel_busy", "neighbors_of"):
            patches.replace(Medium, method, span(f"radio.{method}"))
        for method in ("add_report", "read"):
            patches.replace(AggregateStore, method,
                            span(f"aggregation.{method}"))
        for method in ("register", "lookup"):
            patches.replace(DirectoryService, method,
                            span(f"naming.{method}"))
        for method in ("route_to_point", "route_to_node"):
            patches.replace(GeoRouter, method, span(f"transport.{method}"))
        patches.replace(MtpAgent, "invoke", span("transport.invoke"))
        for name in ANALYSES:
            patches.replace(scenarios_module, name, span(f"metrics.{name}"))

    # -- read-out ------------------------------------------------------
    def span_counts(self) -> Counter:
        """Spans recorded per name (calls of each wrapped entry point)."""
        per_id = Counter(self.name_ids)
        return Counter({self.names[nid]: n for nid, n in per_id.items()})

    def layer_self_seconds(self) -> Dict[str, float]:
        """Host seconds per layer, each span minus its direct children."""
        count = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        totals: Dict[str, float] = defaultdict(float)
        name_ids = self.name_ids
        for index in range(count):
            totals[layer_of[name_ids[index]]] += (
                ends[index] - starts[index] - covered[index])
        # The dispatch hook runs inside Simulator.run but is the tracer's
        # own cost, not the engine's.
        totals["sim"] -= self.hook_seconds
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as ``name start_us end_us parent`` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_us\tend_us\tparent\n")
            for index in range(len(self.starts)):
                out.write(f"{self.names[self.name_ids[index]]}\t"
                          f"{(self.starts[index] - origin) * 1e6:.3f}\t"
                          f"{(self.ends[index] - origin) * 1e6:.3f}\t"
                          f"{self.parents[index]}\n")
