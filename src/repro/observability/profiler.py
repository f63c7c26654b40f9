"""Per-op autograd profiler: time + FLOP accounting for every tensor op.

The GAlign cost profile is dominated by the multi-order GCN
forward/backward (Eq 8-10); this module measures it at the operation
level.  An :class:`OpProfiler` is an observer of the autograd primitive
registry (:mod:`repro.autograd.primitives`).  Inside a
``with profiler.enabled():`` block every primitive op — the
arithmetic/matmul/reduction ``Tensor`` methods plus ``spmm``,
``softmax``, ... in :mod:`repro.autograd.ops` — reports to it, so that:

* the forward call is timed and tagged with op name, output shape, and
  the FLOPs its primitive declares (``matmul``/``spmm`` exact formulas,
  elementwise ops size-based estimates);
* the backward closure the op registered is timed too, so the reverse
  pass is attributed to the op that created it;
* compiled tape kernels (fused ``gcn_layer`` included) report through
  the same hook when :meth:`repro.autograd.Tape.replay` runs;
* when a :class:`~repro.observability.trace.Tracer` is active, each call
  additionally lands in the trace as an ``op.<name>`` event, nested
  under whatever span (epoch, refinement iteration) was open.

Everything aggregates into a per-op table — calls, total/self time,
FLOPs, effective GFLOP/s — via :func:`format_op_table`.

Scoping and cost
----------------
Entering a profiler adds it to the current context's observers and
changes no class or module attribute.  It sees only ops run in the
context that entered it (another thread is not profiled), profilers
nest (each records the same calls), and a profiler may be entered in
several threads at once, aggregating into one table.  Outside any
observer a primitive costs one context lookup (the bounds are asserted
in ``benchmarks/test_profiler_overhead.py``).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..autograd.primitives import OpEvent, attach, detach
from .trace import Tracer, get_tracer

__all__ = ["OpProfiler", "OpStat", "format_op_table"]


class OpStat:
    """Aggregated timings for one (op, direction) pair."""

    __slots__ = ("op", "direction", "calls", "total_time", "self_time",
                 "flops")

    def __init__(self, op: str, direction: str) -> None:
        self.op = op
        self.direction = direction
        self.calls = 0
        self.total_time = 0.0
        self.self_time = 0.0
        self.flops = 0

    @property
    def gflops_per_s(self) -> float:
        return self.flops / self.total_time / 1e9 if self.total_time else 0.0

    def as_row(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "direction": self.direction,
            "calls": self.calls,
            "total_time": self.total_time,
            "self_time": self.self_time,
            "flops": self.flops,
            "gflops_per_s": self.gflops_per_s,
        }


class OpProfiler:
    """Aggregates per-op forward/backward timings and FLOPs.

    Parameters
    ----------
    tracer:
        Destination for per-call ``op.<name>`` trace events; defaults to
        the process tracer at call time (a disabled tracer drops them).
    trace_ops:
        Set False to keep op calls out of the trace (aggregate table
        only) — useful when a long run would make the trace file huge.
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, trace_ops: bool = True
    ) -> None:
        self.tracer = tracer
        self.trace_ops = bool(trace_ops)
        self._stats: Dict[Tuple[str, str], OpStat] = {}
        self._lock = threading.Lock()

    # -- enable / disable ----------------------------------------------
    def enabled(self) -> "OpProfiler":
        """``with profiler.enabled(): ...`` starts observing ops."""
        return self

    def __enter__(self) -> "OpProfiler":
        attach(self)
        return self

    def __exit__(self, *exc_info) -> None:
        detach(self)

    # -- recording ------------------------------------------------------
    def on_op(self, event: OpEvent) -> None:
        """Book one kernel call (eager op, its backward, or tape replay)."""
        key = (event.op, event.direction)
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = self._stats[key] = OpStat(event.op, event.direction)
            stat.calls += 1
            stat.total_time += event.elapsed
            stat.self_time += event.elapsed
            stat.flops += event.flops
        if self.trace_ops:
            tracer = self.tracer if self.tracer is not None else get_tracer()
            suffix = "" if event.direction == "forward" else ".backward"
            tracer.add_event(
                f"op.{event.op}{suffix}", event.started, event.elapsed,
                shape=list(event.shape), flops=event.flops,
            )

    # -- results --------------------------------------------------------
    def stats(self) -> List[OpStat]:
        """All (op, direction) aggregates, busiest first."""
        with self._lock:
            return sorted(
                self._stats.values(), key=lambda s: -s.total_time
            )

    def total_time(self, direction: Optional[str] = None) -> float:
        """Summed self time across ops (primitives never nest, so it
        equals the total)."""
        with self._lock:
            return sum(
                stat.self_time
                for stat in self._stats.values()
                if direction is None or stat.direction == direction
            )

    def total_flops(self) -> int:
        with self._lock:
            return sum(stat.flops for stat in self._stats.values())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()


def format_op_table(
    profiler: OpProfiler, title: Optional[str] = None, limit: int = 0
) -> str:
    """Render the per-op aggregate table (busiest ops first)."""
    stats = profiler.stats()
    if limit:
        stats = stats[:limit]
    headers = ("op", "dir", "calls", "total(s)", "self(s)", "GFLOP",
               "GFLOP/s")
    rows = [
        (
            stat.op,
            stat.direction,
            str(stat.calls),
            f"{stat.total_time:.4f}",
            f"{stat.self_time:.4f}",
            f"{stat.flops / 1e9:.3f}",
            f"{stat.gflops_per_s:.2f}",
        )
        for stat in stats
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
