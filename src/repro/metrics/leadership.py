"""The leadership ledger: leader tenures rebuilt from a finished trace.

Every tenure analysis — led time and coherence, tracking coverage,
handoff gaps, crash recovery — reads the tenures this module derives,
so the close rules are stated once:

* a tenure opens at ``gm.leader_start``;
* it closes at the matching ``gm.leader_stop``, at ``node.fail`` (a
  crashed leader emits no stop record), or at the horizon;
* a rebooted node comes back with empty RAM, so its next tenure needs
  its own ``gm.leader_start``;
* a stop with no open tenure closes one that began at the first
  retained record (``trace_capacity`` can evict the start).

The ledger runs after the run, over ``sim.trace`` or a loaded JSONL
trace; it adds nothing to the simulator's dispatch path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..sim import TraceRecord


class Tenure(NamedTuple):
    """One node leading one label over [start, end]."""

    node: Optional[int]
    label: str
    start: float
    end: float


def leader_tenures(records: Iterable[TraceRecord], context_type: str,
                   horizon: float) -> List[Tenure]:
    """Leader tenures of ``context_type`` labels, in the order they close.

    ``horizon`` (the run's end) closes tenures still open when the trace
    ends.
    """
    open_since: Dict[Tuple[Optional[int], str], float] = {}
    tenures: List[Tenure] = []
    first: Optional[float] = None
    for rec in records:
        if first is None:
            first = rec.time
        category = rec.category
        if category == "node.fail":
            for key in [k for k in open_since if k[0] == rec.node]:
                tenures.append(Tenure(*key, open_since.pop(key), rec.time))
        elif category == "gm.leader_start" or category == "gm.leader_stop":
            label = rec.detail.get("label")
            if label is None or rec.detail.get("type") != context_type:
                continue
            key = (rec.node, label)
            if category == "gm.leader_start":
                open_since.setdefault(key, rec.time)
            else:
                tenures.append(Tenure(rec.node, label,
                                      open_since.pop(key, first), rec.time))
    tenures.extend(Tenure(node, label, start, horizon)
                   for (node, label), start in open_since.items())
    return tenures
