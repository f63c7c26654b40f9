"""Per-layer measurement from outside the program.

The traced run wraps public functions of ``repro`` — class methods and
module-level names, patched on their owner for the duration of a
``with Probe(...)`` block — in spans of the repository's own
:class:`~repro.observability.Tracer`. Spans stay in memory and are
written once, at exit, as Chrome trace JSON. No code under ``src/``
changes; untraced runs never install a probe.

A layer's self time is its span's duration minus the durations of its
child layer spans (op events from the autograd profiler are not layer
spans and are never subtracted).
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability import Tracer
from repro.observability.trace import Span

_MISSING = object()

#: ``flops(args, kwargs) -> int`` for spans that record computed FLOPs.
FlopsFn = Callable[[tuple, dict], int]


class Probe:
    """Patches callables on their owners; restores them on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


def spanned(tracer: Tracer, name: str, flops: Optional[FlopsFn] = None):
    """Wrapper factory: run the original inside a span named ``name``."""

    def make(original):
        def wrapper(*args, **kwargs):
            attrs = {"flops": int(flops(args, kwargs))} if flops else {}
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        return wrapper

    return make


def peak_traced(sink: Dict[str, float], name: str):
    """Wrapper factory: record the call's peak traced allocation in MB.

    ``tracemalloc`` must be running; numpy reports its buffers to it.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            try:
                return original(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                sink[name] = max(sink.get(name, 0.0), (peak - base) / 2**20)

        return wrapper

    return make


def is_layer_span(span: Span) -> bool:
    return not span.name.startswith("op.")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """span id → duration minus the durations of its child layer spans."""
    spans = [span for span in spans if is_layer_span(span)]
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id in own:
            own[span.parent_id] -= span.duration
    return own


def totals(spans: Iterable[Span], use_self: bool = True) -> Dict[str, float]:
    """Summed (self or inclusive) seconds per layer span name."""
    spans = [span for span in spans if is_layer_span(span)]
    own = self_times(spans) if use_self else None
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += own[span.span_id] if use_self else span.duration
    return out


def durations(spans: Iterable[Span], name: str, thread_id=None) -> List[float]:
    """Durations of the spans named ``name``, in start order."""
    picked = [
        span for span in spans
        if span.name == name
        and (thread_id is None or span.thread_id == thread_id)
    ]
    return [span.duration for span in sorted(picked, key=lambda s: s.start)]


def flops_of(spans: Iterable[Span], names: Iterable[str]) -> Tuple[int, float]:
    """Computed FLOPs and seconds summed over spans with these names."""
    names = set(names)
    flops, seconds = 0, 0.0
    for span in spans:
        if span.name in names:
            flops += int(span.attrs.get("flops", 0))
            seconds += span.duration
    return flops, seconds
