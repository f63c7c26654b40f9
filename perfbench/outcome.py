"""What a workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.observability import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class Outcome:
    """Metric values plus the output checks made on the way.

    :meth:`check` counts one attempted operation and whether its output
    was right; :meth:`require` records a run-level condition (a quality
    floor over all answers) whose failure makes the run incorrect.
    """

    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    unmet: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Layer spans of a traced run, written out by ``run.py``.
    tracer: Optional[Tracer] = None

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.notes.append(f"FAILED: {message}")
        return bool(ok)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.unmet.append(message)
            self.notes.append(f"UNMET: {message}")

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unmet
