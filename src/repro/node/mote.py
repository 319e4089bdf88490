"""The mote: a sensor node with radio, CPU, sensors and protocol handlers.

A :class:`Mote` glues the substrates together the way a TinyOS image does:

* the radio delivers frames → a CPU task dispatches them to the handler
  registered for the frame's ``kind``;
* components register timers whose handlers also run as CPU tasks (so an
  overloaded CPU delays them — the Figure 5 effect);
* sensors are sampled locally and synchronously (reading the ADC is cheap
  next to messaging).

Failure injection (``fail()``) silences the node completely: radio off, CPU
drained, timers dead — the "current leader fails" worst case of §6.2.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..radio import Frame, MacBase, Medium, TransceiverPort, make_mac
from ..sim import PeriodicTimer, Simulator, WatchdogTimer
from .cpu import DEFAULT_QUEUE_LIMIT, DEFAULT_TASK_COST, Cpu

Position = Tuple[float, float]
FrameHandler = Callable[[Frame], None]


class _SpanNames(dict):
    """``<prefix>.<kind>`` span names, formatted once per frame kind.

    A process-wide memo of a pure function over the protocol's fixed set
    of frame kinds: it holds one string per kind and no run state.
    """

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, kind: str) -> str:
        name = self[kind] = f"{self.prefix}.{kind}"
        return name


_FRAME_SPAN = _SpanNames("frame")
_HANDLE_SPAN = _SpanNames("handle")


class Mote:
    """One simulated sensor node.

    Parameters
    ----------
    sim:
        Owning simulator.
    node_id:
        Unique id in the field.
    position:
        Field coordinates in grid units.
    medium:
        The shared radio channel to attach to.
    mac:
        ``"csma"`` (default) or ``"null"``.
    task_cost / queue_limit:
        CPU model parameters (see :class:`repro.node.cpu.Cpu`).
    rx_cost / tx_cost:
        CPU time charged per received / transmitted frame.
    """

    def __init__(self, sim: Simulator, node_id: int, position: Position,
                 medium: Medium, mac: str = "csma",
                 task_cost: float = DEFAULT_TASK_COST,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 rx_cost: Optional[float] = None,
                 tx_cost: Optional[float] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self._position = position
        self.medium = medium
        self.alive = True
        self.cpu = Cpu(sim, node_id, task_cost=task_cost,
                       queue_limit=queue_limit)
        self.rx_cost = task_cost if rx_cost is None else rx_cost
        self.tx_cost = task_cost if tx_cost is None else tx_cost
        self._handlers: Dict[str, List[FrameHandler]] = {}
        self._sensors: Dict[str, Callable[[], Any]] = {}
        self._timers: List[Any] = []
        self._reboot_hooks: List[Callable[[], None]] = []
        #: Oscillator skew: multiplies the nominal delay of every timer
        #: created on this mote (1.0 = perfect clock).
        self.clock_scale = 1.0
        self.port = TransceiverPort(node_id, lambda: self._position,
                                    self._on_physical_receive)
        medium.attach(self.port)
        self.mac: MacBase = make_mac(mac, sim, medium,
                                     lambda: self._position)
        self.frames_sent = 0
        self.frames_delivered = 0

    # ------------------------------------------------------------------
    # Position
    # ------------------------------------------------------------------
    @property
    def position(self) -> Position:
        return self._position

    def move_to(self, position: Position) -> None:
        """Relocate the node (sensor fields are static; kept for tests).

        Notifies the medium so its spatial index re-buckets this node.
        """
        self._position = position
        self.medium.refresh_position(self.node_id)

    # ------------------------------------------------------------------
    # Sensors
    # ------------------------------------------------------------------
    def install_sensor(self, name: str, read_fn: Callable[[], Any]) -> None:
        """Install a named sensor whose value is produced by ``read_fn``."""
        self._sensors[name] = read_fn

    def read_sensor(self, name: str) -> Any:
        """Sample a sensor; raises KeyError for unknown sensors."""
        return self._sensors[name]()

    def has_sensor(self, name: str) -> bool:
        return name in self._sensors

    def sensor_names(self) -> List[str]:
        return sorted(self._sensors)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def register_handler(self, kind: str, handler: FrameHandler) -> None:
        """Register ``handler`` for frames of ``kind`` addressed to us."""
        self._handlers.setdefault(kind, []).append(handler)

    def send(self, frame: Frame) -> None:
        """Queue a frame for transmission (charges CPU tx cost first)."""
        if not self.alive:
            return
        self.cpu.post(self._do_send, frame, cost=self.tx_cost,
                      label=f"tx.{frame.kind}")

    def _do_send(self, frame: Frame) -> None:
        if not self.alive:
            return
        self.frames_sent += 1
        # Causal tracing: the frame gets its own span under whatever
        # context queued the send (a handler, a timer, a takeover); MAC
        # backoff and the medium's delivery events inherit it through the
        # engine's span capture, so receptions chain to this send.
        spans = self.sim.spans
        span_id = spans.start(_FRAME_SPAN[frame.kind], node=self.node_id)
        frame.span_id = span_id
        spans.note_frame(span_id, frame.frame_id)
        previous = spans.current
        spans.current = span_id
        try:
            self.mac.send(frame)
        finally:
            spans.current = previous
        spans.finish(span_id)

    def _on_physical_receive(self, frame: Frame) -> None:
        if not self.alive:
            return
        # Address filter happens *after* the radio heard the frame: the
        # medium's stats count physical receptions (paper's loss metric),
        # the mote only processes frames addressed to it or broadcast.
        if not frame.addressed_to(self.node_id):
            return
        self.cpu.post(self._dispatch, frame, cost=self.rx_cost,
                      label=f"rx.{frame.kind}")

    def _dispatch(self, frame: Frame) -> None:
        if not self.alive:
            return
        self.frames_delivered += 1
        handlers = self._handlers.get(frame.kind)
        if not handlers:
            return
        spans = self.sim.spans
        name = _HANDLE_SPAN[frame.kind]
        for handler in handlers:
            # Each handler runs in its own span under the frame that
            # triggered it, so replies sent inside become grandchildren
            # of the original send.
            span_id = spans.start(name, node=self.node_id,
                                  parent=frame.span_id)
            previous = spans.current
            spans.current = span_id
            try:
                handler(frame)
            finally:
                spans.current = previous
                spans.finish(span_id)

    # ------------------------------------------------------------------
    # Timers (handlers run as CPU tasks)
    # ------------------------------------------------------------------
    def periodic(self, period: float, callback: Callable[[], None],
                 label: str = "periodic",
                 initial_delay: Optional[float] = None,
                 cost: Optional[float] = None) -> PeriodicTimer:
        """A periodic timer whose callback is executed on this mote's CPU."""
        task_label = f"timer.{label}"
        timer = PeriodicTimer(
            self.sim, period * self.clock_scale,
            lambda: self._timer_fire(callback, cost, task_label),
            label=f"{label}@{self.node_id}",
            initial_delay=(None if initial_delay is None
                           else initial_delay * self.clock_scale))
        self._timers.append(timer)
        return timer

    def watchdog(self, timeout: float, callback: Callable[[], None],
                 label: str = "watchdog",
                 cost: Optional[float] = None) -> WatchdogTimer:
        """A watchdog whose expiry handler runs on this mote's CPU."""
        task_label = f"timer.{label}"
        timer = WatchdogTimer(
            self.sim, timeout * self.clock_scale,
            lambda: self._timer_fire(callback, cost, task_label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def oneshot(self, callback: Callable[[], None],
                label: str = "oneshot",
                cost: Optional[float] = None) -> "OneShotTimer":
        """An unarmed one-shot timer; arm with ``start(delay)``.  The
        callback runs on this mote's CPU."""
        from ..sim import OneShotTimer
        task_label = f"timer.{label}"
        timer = OneShotTimer(
            self.sim,
            lambda: self._timer_fire(callback, cost, task_label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def _timer_fire(self, callback: Callable[[], None],
                    cost: Optional[float], task_label: str) -> None:
        """Post a timer's callback to the CPU as task ``task_label``."""
        if not self.alive:
            return
        self.cpu.post(callback, cost=cost, label=task_label)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill the node: radio silent, CPU drained, timers stopped."""
        if not self.alive:
            return
        self.alive = False
        self.port.enabled = False
        self.cpu.shutdown()
        self.mac.shutdown()
        for timer in self._timers:
            stop = getattr(timer, "stop", None) or getattr(timer, "cancel")
            stop()
        self.sim.record("node.fail", node=self.node_id)

    def recover(self) -> None:
        """Bring a failed node back (fresh CPU state; timers stay stopped
        until a component restarts them)."""
        if self.alive:
            return
        self.alive = True
        self.port.enabled = True
        self.cpu.enabled = True
        self.sim.record("node.recover", node=self.node_id)

    def add_reboot_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run when this mote reboots.

        Components use it to rebuild their volatile state — a reboot is a
        power cycle, not a resume: protocol layers come back with empty
        RAM and must rejoin groups from scratch.
        """
        self._reboot_hooks.append(hook)

    def reboot(self) -> None:
        """Power-cycle a failed node: recover, then reinitialize components
        via their reboot hooks.  No-op on a live node."""
        if self.alive:
            return
        self.recover()
        self.sim.record("node.reboot", node=self.node_id)
        for hook in self._reboot_hooks:
            hook()

    def skew_clock(self, factor: float) -> None:
        """Stretch (>1) or compress (<1) this mote's oscillator.

        Applies to every existing periodic/watchdog timer's nominal delay
        and to timers created later.  Periodic changes take effect after
        the next firing (matching :class:`PeriodicTimer` semantics); a
        watchdog's new timeout applies from its next kick.
        """
        if factor <= 0:
            raise ValueError(f"clock skew factor must be positive: {factor}")
        self.clock_scale *= factor
        for timer in self._timers:
            if isinstance(timer, PeriodicTimer):
                timer.period *= factor
            elif isinstance(timer, WatchdogTimer):
                timer.timeout *= factor
        self.sim.record("node.clock_skew", node=self.node_id,
                        factor=factor, scale=self.clock_scale)
