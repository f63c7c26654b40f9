"""The autograd primitive registry and its per-context op observers.

Every op that builds a graph node (every caller of ``Tensor._make``) is
declared once, where it is defined, with :func:`primitive` — the
HIPS-autograd idiom of wrapping each function once, plus drjit-style
explicit dispatch::

    @primitive("matmul", flops=_matmul_flops)
    def matmul(self, other): ...

The declaration names the op and gives its FLOP formula: one function
of the call returning ``(forward, backward)`` FLOPs, the single source
for the eager profiler and for compiled tape replay alike.

Observers
---------
Tools that look inside the autograd engine — the per-op profiler
(:class:`repro.observability.OpProfiler`) and tape capture
(:class:`repro.autograd.TapeRecorder`) — are *observers*.  Entering one
(:func:`attach`) adds it to a :class:`contextvars.ContextVar`, so it sees
only ops run in the context that entered it: another thread is not
observed, observers nest, and no class or module attribute is ever
rewritten.  With no observer set, a primitive costs one extra call and
one context lookup, then runs the op directly.

An observer implements ``on_op(event)`` and receives one
:class:`OpEvent` per timed kernel:

* an eager primitive call (``direction="forward"``; ``args``, ``kwargs``
  and ``out`` carry the call so tape capture can record it);
* the backward closure of an op observed forward (``"backward"``),
  reported while that observer is still entered;
* a compiled tape kernel, fused ``gcn_layer`` included, reported by
  :meth:`repro.autograd.Tape.replay` through :func:`notify`.

Primitives are leaf ops: they do their numeric work in numpy and never
call another primitive, so a kernel's elapsed time is also its self
time.
"""

from __future__ import annotations

import functools
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "OpEvent",
    "PRIMITIVES",
    "primitive",
    "attach",
    "detach",
    "observers",
    "notify",
    "elementwise",
    "free",
]

#: ``flops(args, kwargs, out) -> (forward, backward)`` for one call.
FlopFormula = Callable[[tuple, dict, Any], Tuple[int, int]]

#: Registered op name → its FLOP formula.
PRIMITIVES: Dict[str, FlopFormula] = {}

_observers: ContextVar[tuple] = ContextVar("autograd_observers", default=())


class OpEvent:
    """One timed kernel call, as reported to observers."""

    __slots__ = ("op", "direction", "started", "elapsed", "flops", "shape",
                 "args", "kwargs", "out", "backward_flops")

    def __init__(
        self,
        op: str,
        direction: str,
        started: float,
        elapsed: float,
        flops: int,
        shape: tuple,
        args: Optional[tuple] = None,
        kwargs: Optional[dict] = None,
        out: Any = None,
        backward_flops: int = 0,
    ) -> None:
        self.op = op
        self.direction = direction
        self.started = started
        self.elapsed = elapsed
        self.flops = flops
        self.shape = shape
        self.args = args
        self.kwargs = kwargs
        self.out = out
        self.backward_flops = backward_flops


def elementwise(args: tuple, kwargs: dict, out: Any) -> Tuple[int, int]:
    """About one FLOP per output element, forward and backward."""
    size = int(out.data.size)
    return size, size


def free(args: tuple, kwargs: dict, out: Any) -> Tuple[int, int]:
    """Data movement: no arithmetic either way."""
    return 0, 0


def attach(observer: Any) -> None:
    """Start reporting ops run in the current context to ``observer``."""
    current = _observers.get()
    if observer in current:
        raise RuntimeError(f"{type(observer).__name__} is already observing")
    _observers.set(current + (observer,))


def detach(observer: Any) -> None:
    """Stop reporting to ``observer`` in the current context."""
    _observers.set(tuple(o for o in _observers.get() if o is not observer))


def observers() -> tuple:
    """The observers entered in the current context, outermost first."""
    return _observers.get()


def notify(targets: Sequence[Any], event: OpEvent) -> None:
    """Report one kernel call to every observer in ``targets``."""
    for observer in targets:
        observer.on_op(event)


def primitive(name: str, flops: FlopFormula) -> Callable:
    """Declare ``fn`` as the autograd op ``name`` with its FLOP formula."""
    if name in PRIMITIVES:
        raise ValueError(f"autograd primitive {name!r} is already declared")
    PRIMITIVES[name] = flops

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def op(*args, **kwargs):
            targets = _observers.get()
            if not targets:
                return fn(*args, **kwargs)
            return _observed_call(name, fn, flops, targets, args, kwargs)

        return op

    return decorate


def _observed_call(name: str, fn: Callable, flops: FlopFormula,
                   targets: tuple, args: tuple, kwargs: dict) -> Any:
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    forward, backward = flops(args, kwargs, out)
    shape = out.data.shape
    notify(targets, OpEvent(name, "forward", started, elapsed, forward,
                            shape, args, kwargs, out, backward))
    if out._backward is not None:
        out._backward = _observed_backward(
            name, out._backward, targets, backward, shape
        )
    return out


def _observed_backward(name: str, backward: Callable, targets: tuple,
                       flops: int, shape: tuple) -> Callable:
    def timed(grad):
        current = _observers.get()
        live = [observer for observer in targets if observer in current]
        if not live:
            # The observers that saw the forward have exited (the tensor
            # outlived them); stay out of their books.
            return backward(grad)
        started = time.perf_counter()
        backward(grad)
        notify(live, OpEvent(name, "backward", started,
                             time.perf_counter() - started, flops, shape))

    return timed
