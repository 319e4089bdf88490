"""Locate the simulator's source tree and import it.

The benchmark runs from the root of a source checkout and measures the
``repro`` package under ``src/`` there, never an installed copy: a
benchmark that silently timed some other build would be worse than one
that refuses to run.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load() -> None:
    """Put ``src/`` first on ``sys.path`` and check ``repro`` comes from it.

    Raises ``SystemExit`` (a non-zero exit, no result printed) when the
    checkout has no program source.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, "
                         f"not from {SRC}")
