"""Tape capture and fused replay for the static training graph.

GAlign's training graph is *static*: every epoch rebuilds exactly the same
define-by-run op sequence over new parameter values (the propagation
matrices, augmented views, and loss structure are all fixed after setup).
Eager execution pays for that rebuild every epoch — one Python call, one
closure allocation, and one garbage graph per op.  This module removes the
rebuild in the spirit of drjit's recorded loops and HIPS-autograd's
explicit tape:

* :class:`TapeRecorder` is an observer of the autograd primitive
  registry (:mod:`repro.autograd.primitives`), the same hook the
  profiler uses.  For ONE eager epoch it records every primitive call
  made in the context that entered it into an explicit tape: op kind,
  input/output value slots, constant operands (the CSR Laplacian,
  scalar coefficients, index arrays) and the op's declared FLOPs.
  Recorders nest with each other and with profilers, and change no
  class or module attribute.
* :meth:`TapeRecorder.finalize` turns the recording into a :class:`Tape`:
  kernels are compiled once into per-op callables (no per-epoch closure
  allocation), graph-level passes run — GCN-layer fusion, single-consumer
  buffer reuse — and the dtype policy is applied.
* :meth:`Tape.replay` re-executes the graph against the parameters' live
  values and returns ordinary output :class:`~repro.autograd.Tensor`
  objects whose ``backward()`` runs the tape's hand-scheduled reverse
  pass, accumulating into the parameters' ``.grad`` exactly like eager.
  Each replayed kernel is reported to the current observers, so a
  profiler sees compiled execution where it saw eager execution.

Bitwise contract
----------------
In ``float64`` the replay is *bitwise equal* to eager execution, forward
and backward.  Forward kernels repeat the eager numpy expressions verbatim
in capture order; the reverse pass replays the op backwards in the order
eager's depth-first topological sort would fire them (recorded from the
capture epoch's graph — reverse-creation order is **not** the same and
would reorder gradient accumulation), and gradient accumulation mirrors
``Tensor._accumulate`` (unbroadcast, cast to the slot dtype, copy-then-add)
slot by slot.  The fused GCN kernel keeps the contract because its three
constituent adjoints are applied in the same order, on the same arrays,
with single-consumer intermediates (asserted in ``tests/test_tape.py``).

Optimization passes
-------------------
* **Fusion** — the GCN layer pattern ``matmul → spmm → tanh|relu`` (Eq 1's
  ``σ(C H W)``) collapses into one ``gcn_layer`` op with a hand-written
  fused backward, eliminating the intermediate graph nodes.  It applies
  only when both intermediates are single-consumer and neither is a tape
  output or watch value.
* **Buffer reuse** — every non-view op output of static shape gets a
  persistent ``out=`` buffer, so steady-state replay allocates almost
  nothing; where the tape proves an input is single-consumer, op-produced,
  not aliased by a view, and not needed by any backward, the op writes
  straight into the input's buffer (in-place execution).
* **Dtype policy** — ``float64`` replay is the bitwise oracle;
  ``float32`` replay casts constants once at finalize and parameters per
  replay, runs the whole graph in single precision (≈2× on BLAS-bound
  layers), and accumulates parameter gradients back into the ``float64``
  masters.  ``float32`` results are tolerance-checked against the
  ``float64`` oracle, never bitwise.  The Eq 7 op ``gram_residual_norm``
  is the exception: it upcasts its n×d input and always evaluates in
  ``float64``, because its factored value cancels digits near a fit.

When eager falls back
---------------------
A tape replays one static graph with one output (the epoch's loss);
nothing in it may depend on data drawn per epoch.  A loss that does must
train eagerly.  A tensor produced by an op *outside* the capture window
cannot join the tape (its history is unknown) and raises at capture time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .ops import (
    gram_residual_adjoint,
    gram_residual_forward,
    transposed_csr,
)
from .primitives import OpEvent, attach, detach, notify, observers
from .tensor import Tensor, _index_add, _unbroadcast

__all__ = ["TapeRecorder", "Tape", "watch"]


_SLOT_PARAM = 0
_SLOT_CONST = 1
_SLOT_OP = 2

#: Op kinds whose outputs are (or may be) numpy views of their input —
#: they own no memory, so they never get persistent buffers and their
#: sources are never overwritten in place.
_VIEW_KINDS = frozenset({"transpose", "reshape", "getitem"})

#: Kinds whose compiled forward can write into a preallocated ``out=``
#: buffer of the (static) output shape.
_OUT_CAPABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "matmul", "tanh", "relu",
    "sqrt", "abs", "log", "clip_min", "exp", "sum",
})

#: Elementwise kinds that may additionally alias their output onto a
#: dying input's buffer (ufunc in-place is well-defined; matmul is not).
_INPLACE_CAPABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "tanh", "relu",
    "sqrt", "abs", "log", "clip_min", "exp",
})

def _positional(args: tuple, kwargs: dict, position: int, name: str,
                default: Any) -> Any:
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _split_op(kind: str, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """Split an op call into (tensor-operand values, constant meta)."""
    if kind in ("add", "sub", "mul", "div", "matmul"):
        return (args[0], args[1]), {}
    if kind == "pow":
        return (args[0],), {"exponent": args[1]}
    if kind == "getitem":
        index = args[1]
        if isinstance(index, np.ndarray):
            index = index.copy()
        elif isinstance(index, tuple):
            index = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in index
            )
        elif isinstance(index, list):
            index = list(index)
        return (args[0],), {"index": index}
    if kind == "sum":
        return (args[0],), {
            "axis": _positional(args, kwargs, 1, "axis", None),
            "keepdims": bool(_positional(args, kwargs, 2, "keepdims", False)),
        }
    if kind == "clip_min":
        return (args[0],), {"minimum": args[1]}
    if kind == "spmm":
        return (args[1],), {"csr": args[0].tocsr()}
    if kind == "gram_residual_norm":
        # Its float64 target is never cast (see Tape.__init__).
        return (args[1],), {"target": args[0]}
    if kind in ("concat", "stack"):
        return tuple(args[0]), {
            "axis": int(_positional(args, kwargs, 1, "axis", 0))
        }
    if kind == "threshold_mask":
        return (args[0],), {"threshold": args[1]}
    if kind in ("softmax", "log_softmax"):
        return (args[0],), {
            "axis": _positional(args, kwargs, 1, "axis", -1)
        }
    # Unary tensor methods (neg, transpose, reshape, tanh, ...).
    return (args[0],), {}


class _TapeOp:
    """One executable tape entry (compiled at finalize time)."""

    __slots__ = ("kind", "inputs", "out", "meta", "fwd", "bwd",
                 "flops", "bwd_flops", "shape")

    def __init__(self, kind: str, inputs: Tuple[int, ...], out: int,
                 meta: dict, flops: int, bwd_flops: int) -> None:
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.meta = meta
        self.fwd: Optional[Callable[[], None]] = None
        self.bwd: Optional[Callable[[list, np.ndarray], None]] = None
        self.flops = flops
        self.bwd_flops = bwd_flops
        self.shape: tuple = ()


def watch(tensor: Tensor, label: str) -> Tensor:
    """Register ``tensor``'s value under ``label`` for replay read-back.

    A no-op outside capture.  During capture the tensor's slot is
    recorded by every recorder entered in this context;
    :meth:`Tape.replay` returns ``{label: value}`` with values summed in
    registration order starting from ``0.0`` — the same float
    accumulation an eager ``value += float(t.data)`` loop performs, so
    watched diagnostics stay bitwise comparable in float64.
    """
    for observer in observers():
        if isinstance(observer, TapeRecorder):
            observer._watch(tensor, label)
    return tensor


class TapeRecorder:
    """Capture one eager epoch's op stream into a tape.

    Usage::

        recorder = TapeRecorder()
        with recorder:
            total, *diagnostics = compute_losses(0)   # eager, recorded
        tape = recorder.finalize(total)
        ...
        total, watched = tape.replay()                # later epochs
    """

    def __init__(self) -> None:
        #: Slot kind per slot id.
        self.slot_kinds: List[int] = []
        #: Parameter Tensor per param slot (read live at every replay).
        self.slot_params: Dict[int, Tensor] = {}
        #: Captured constant array per const slot.
        self.slot_consts: Dict[int, np.ndarray] = {}
        #: Static shape / dtype / requires-grad per slot.
        self.slot_shapes: List[tuple] = []
        self.slot_requires: List[bool] = []
        self.ops: List[_TapeOp] = []
        self.watches: List[Tuple[str, int]] = []
        self._slot_by_id: Dict[int, int] = {}
        self._op_index_by_out_id: Dict[int, int] = {}
        self._keepalive: List[Tensor] = []
        self._entered = False
        self._capturing = False

    # -- context management --------------------------------------------
    def __enter__(self) -> "TapeRecorder":
        if self._entered:
            raise RuntimeError("a TapeRecorder cannot be re-entered")
        attach(self)
        self._entered = self._capturing = True
        return self

    def __exit__(self, *exc_info) -> None:
        detach(self)
        self._capturing = False

    def on_op(self, event: OpEvent) -> None:
        """Record one eager primitive call (timed-only events carry no
        call: backward closures and other tapes' replayed kernels)."""
        if event.out is not None:
            self._record(event)

    # -- slot bookkeeping ----------------------------------------------
    def _new_slot(self, kind: int, shape: tuple, requires: bool) -> int:
        slot = len(self.slot_kinds)
        self.slot_kinds.append(kind)
        self.slot_shapes.append(shape)
        self.slot_requires.append(requires)
        return slot

    def _slot_for(self, value: Any) -> int:
        if isinstance(value, Tensor):
            slot = self._slot_by_id.get(id(value))
            if slot is not None:
                return slot
            if value.requires_grad and value._backward is not None:
                raise RuntimeError(
                    "a tensor produced by an op outside the capture "
                    "window flowed into the tape; capture the whole "
                    "loss computation inside one recorder context"
                )
            self._keepalive.append(value)
            if value.requires_grad:
                slot = self._new_slot(_SLOT_PARAM, value.data.shape, True)
                self.slot_params[slot] = value
            else:
                slot = self._new_slot(_SLOT_CONST, value.data.shape, False)
                self.slot_consts[slot] = value.data
            self._slot_by_id[id(value)] = slot
            return slot
        # Raw scalar/array operand: eager wraps it in Tensor(value)
        # (float64 coercion) — snapshot the same conversion.
        data = np.asarray(value, dtype=np.float64)
        slot = self._new_slot(_SLOT_CONST, data.shape, False)
        self.slot_consts[slot] = data
        return slot

    def _record(self, event: OpEvent) -> None:
        out = event.out
        operands, meta = _split_op(event.op, event.args, event.kwargs)
        input_slots = tuple(self._slot_for(value) for value in operands)
        out_slot = self._new_slot(_SLOT_OP, out.data.shape,
                                  out.requires_grad)
        self._slot_by_id[id(out)] = out_slot
        self._op_index_by_out_id[id(out)] = len(self.ops)
        self._keepalive.append(out)
        self.ops.append(_TapeOp(event.op, input_slots, out_slot, meta,
                                event.flops, event.backward_flops))

    def _watch(self, tensor: Tensor, label: str) -> None:
        self.watches.append((label, self._slot_for(tensor)))

    # -- finalize -------------------------------------------------------
    def finalize(
        self,
        output: Tensor,
        *,
        fuse: bool = True,
        reuse_buffers: bool = True,
        dtype: str = "float64",
    ) -> "Tape":
        """Compile the recording into an executable :class:`Tape`.

        Parameters
        ----------
        output:
            The tensor (recorded during capture) whose value — and, via
            its replay stand-in, gradient — the caller needs every epoch.
            Its eager graph fixes the backward execution order.
        fuse / reuse_buffers:
            Toggle the fusion and buffer-reuse passes (both default on;
            the test matrix exercises all four combinations).
        dtype:
            ``"float64"`` (bitwise oracle) or ``"float32"`` (fast
            training policy).
        """
        if self._entered is False:
            raise RuntimeError("finalize() requires a completed capture")
        if self._capturing:
            raise RuntimeError("finalize() must be called after the "
                               "recorder context exits")
        if dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported tape dtype {dtype!r}")
        output_slot = self._slot_by_id.get(id(output))
        if output_slot is None:
            raise ValueError("output tensor was not recorded by this capture")
        # Backward order: the op indices in the order the capture
        # epoch's eager backward would fire them (output first).
        backward_order = [
            self._op_index_by_out_id[id(node)]
            for node in output._topological_order()
            if id(node) in self._op_index_by_out_id
            and self.slot_requires[
                self.ops[self._op_index_by_out_id[id(node)]].out
            ]
        ]
        return Tape(
            recorder=self,
            output_slot=output_slot,
            backward_order=backward_order,
            fuse=fuse,
            reuse_buffers=reuse_buffers,
            dtype=dtype,
        )


#: Per-kind value dependencies of the backward kernel: which of the op's
#: slots ("in0", "in1", "out") must still hold their forward value when
#: the reverse pass runs.  Drives buffer-reuse safety.
_BACKWARD_READS: Dict[str, Tuple[str, ...]] = {
    "mul": ("in0", "in1"),
    "div": ("in0", "in1"),
    "pow": ("in0",),
    "matmul": ("in0", "in1"),
    "tanh": ("out",),
    "relu": ("in0",),
    "sigmoid": ("out",),
    "exp": ("out",),
    "log": ("in0",),
    "sqrt": ("out",),
    "abs": ("in0",),
    "clip_min": ("in0",),
    "threshold_mask": ("in0",),
    "softmax": ("out",),
    "log_softmax": ("out",),
    "gcn_layer": ("in0", "in1", "out"),
    "gram_residual_norm": ("in0", "out"),
}


class Tape:
    """An executable, optimized recording of one training epoch.

    Construct via :meth:`TapeRecorder.finalize`.  Not thread-safe: one
    replay at a time (the value buffers are shared across replays, and a
    replay's outputs are valid until the next replay begins).
    """

    def __init__(self, recorder: TapeRecorder, output_slot: int,
                 backward_order: List[int], fuse: bool,
                 reuse_buffers: bool, dtype: str) -> None:
        self.dtype = np.float32 if dtype == "float32" else np.float64
        self.fused = 0
        self.inplace = 0
        self.buffered = 0
        self._watches = list(recorder.watches)
        self._output_slot = output_slot
        self._slot_kinds = list(recorder.slot_kinds)
        self._slot_shapes = list(recorder.slot_shapes)
        self._slot_requires = list(recorder.slot_requires)
        self._params = dict(recorder.slot_params)
        self._values: List[Optional[np.ndarray]] = (
            [None] * len(self._slot_kinds)
        )
        # Constants (and CSR operands below) are cast once, here.
        for slot, array in recorder.slot_consts.items():
            if array.dtype != self.dtype and np.issubdtype(
                array.dtype, np.floating
            ):
                array = array.astype(self.dtype)
            self._values[slot] = array
        ops = [
            _TapeOp(op.kind, op.inputs, op.out, dict(op.meta), op.flops,
                    op.bwd_flops)
            for op in recorder.ops
        ]
        # One cast per distinct CSR operand, so the layers sharing a
        # propagation matrix also share its cached transpose.
        cast: Dict[int, sp.csr_matrix] = {}
        for op in ops:
            csr = op.meta.get("csr")
            if csr is not None and csr.dtype != self.dtype:
                if id(csr) not in cast:
                    cast[id(csr)] = csr.astype(self.dtype)
                op.meta["csr"] = cast[id(csr)]
        forward, backward_order = (
            self._fuse(ops, backward_order) if fuse
            else (ops, list(backward_order))
        )
        self._forward = forward
        self._backward_ops = [forward[i] for i in backward_order]
        self._plan_buffers(reuse_buffers)
        for op in self._forward:
            op.shape = self._slot_shapes[op.out]
            op.fwd = self._build_fwd(op)
            op.bwd = self._build_bwd(op)

    # -- graph passes ---------------------------------------------------
    def _consumer_counts(self, ops: List[_TapeOp]) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for op in ops:
            for slot in op.inputs:
                counts[slot] = counts.get(slot, 0) + 1
        counts[self._output_slot] = counts.get(self._output_slot, 0) + 1
        for _label, slot in self._watches:
            counts[slot] = counts.get(slot, 0) + 1
        return counts

    def _fuse(self, ops: List[_TapeOp],
              backward_order: List[int]) -> Tuple[List[_TapeOp], List[int]]:
        """Collapse ``matmul → spmm → tanh|relu`` chains into gcn_layer.

        The fused op takes the matmul's position in both the forward and
        backward schedules: its backward accumulates into H and W at the
        exact point eager's matmul backward would, and the dropped
        intermediate slots are single-consumer, so no other accumulation
        order changes — the float64 bitwise contract survives fusion.
        """
        counts = self._consumer_counts(ops)
        consumer_of: Dict[int, int] = {}
        for index, op in enumerate(ops):
            for slot in op.inputs:
                if counts.get(slot) == 1:
                    consumer_of[slot] = index
        replaced: Dict[int, Optional[_TapeOp]] = {}
        for index, op in enumerate(ops):
            if op.kind != "matmul" or index in replaced:
                continue
            spmm_index = consumer_of.get(op.out)
            if spmm_index is None or ops[spmm_index].kind != "spmm":
                continue
            spmm_op = ops[spmm_index]
            act_index = consumer_of.get(spmm_op.out)
            if act_index is None or ops[act_index].kind not in (
                "tanh", "relu"
            ):
                continue
            act_op = ops[act_index]
            chain = (op, spmm_op, act_op)
            fused = _TapeOp(
                "gcn_layer", op.inputs, act_op.out,
                {"csr": spmm_op.meta["csr"], "activation": act_op.kind},
                sum(part.flops for part in chain),
                sum(part.bwd_flops for part in chain),
            )
            self._slot_requires[fused.out] = (
                self._slot_requires[act_op.out]
            )
            replaced[index] = fused
            replaced[spmm_index] = None
            replaced[act_index] = None
            self.fused += 1
        if not self.fused:
            return ops, list(backward_order)
        new_ops: List[_TapeOp] = []
        new_index: Dict[int, int] = {}
        for index, op in enumerate(ops):
            if index in replaced:
                if replaced[index] is None:
                    continue
                op = replaced[index]
            new_index[index] = len(new_ops)
            new_ops.append(op)
        new_backward = [
            new_index[i] for i in backward_order if i in new_index
        ]
        return new_ops, new_backward

    def _plan_buffers(self, reuse_buffers: bool) -> None:
        """Assign persistent out= buffers and in-place targets."""
        self._out_buffer: Dict[int, np.ndarray] = {}
        self._inplace_from: Dict[int, int] = {}
        if not reuse_buffers:
            return
        ops = self._forward
        counts = self._consumer_counts(ops)
        # Alias groups: a view shares its source's memory, so any slot
        # aliased by another may never be overwritten in place.
        alias_root: Dict[int, int] = {}
        aliased: set = set()
        view_out: set = set()
        for op in ops:
            if op.kind in _VIEW_KINDS:
                root = alias_root.get(op.inputs[0], op.inputs[0])
                alias_root[op.out] = root
                aliased.add(root)
                aliased.add(op.out)
                view_out.add(op.out)
        # Values any backward kernel still needs (only ops that will
        # actually run a backward protect their reads).
        backward_needs: set = set()
        for op in ops:
            if not self._slot_requires[op.out]:
                continue
            for ref in _BACKWARD_READS.get(op.kind, ()):
                if ref == "out":
                    backward_needs.add(op.out)
                else:
                    position = int(ref[2:])
                    if position < len(op.inputs):
                        backward_needs.add(op.inputs[position])
        protected = {self._output_slot}
        protected.update(slot for _label, slot in self._watches)
        protected.update(backward_needs)
        protected.update(aliased)
        for op in ops:
            if op.kind not in _OUT_CAPABLE or op.out in view_out:
                continue
            shape = self._slot_shapes[op.out]
            if op.kind in _INPLACE_CAPABLE:
                for slot in op.inputs:
                    if (
                        self._slot_kinds[slot] == _SLOT_OP
                        and counts.get(slot) == 1
                        and slot not in protected
                        and slot not in view_out
                        and self._slot_shapes[slot] == shape
                    ):
                        self._inplace_from[op.out] = slot
                        self.inplace += 1
                        break
            if op.out in self._inplace_from:
                continue
            if op.out == self._output_slot:
                # The output stays freshly allocated: the caller may hold
                # the returned tensor past the next replay.
                continue
            self._out_buffer[op.out] = np.empty(shape, dtype=self.dtype)
            self.buffered += 1

    # -- kernel compilation --------------------------------------------
    def _out_for(self, op: _TapeOp) -> Callable[[], Optional[np.ndarray]]:
        values = self._values
        buffer = self._out_buffer.get(op.out)
        source = self._inplace_from.get(op.out)
        if source is not None:
            return lambda: values[source]
        if buffer is not None:
            return lambda: buffer
        return lambda: None

    def _build_fwd(self, op: _TapeOp) -> Callable[[], None]:
        """One zero-argument forward kernel, allocated once.

        Every kernel repeats the eager op's numpy expression verbatim so
        the float64 replay is bitwise-equal; ``out=`` only redirects the
        destination buffer, never the arithmetic.
        """
        values = self._values
        kind, meta, out = op.kind, op.meta, op.out
        ins = op.inputs
        out_arr = self._out_for(op)
        ufuncs = {
            "add": np.add, "sub": np.subtract, "mul": np.multiply,
            "div": np.divide, "matmul": np.matmul,
        }
        if kind in ufuncs:
            ufunc, a, b = ufuncs[kind], ins[0], ins[1]

            def fwd():
                values[out] = ufunc(values[a], values[b], out=out_arr())
            return fwd
        a = ins[0] if ins else -1
        if kind == "neg":
            return lambda: values.__setitem__(
                out, np.negative(values[a], out=out_arr())
            )
        if kind == "pow":
            exponent = meta["exponent"]
            return lambda: values.__setitem__(
                out, np.power(values[a], exponent, out=out_arr())
            )
        if kind == "transpose":
            return lambda: values.__setitem__(out, values[a].T)
        if kind == "reshape":
            shape = self._slot_shapes[out]
            return lambda: values.__setitem__(
                out, values[a].reshape(shape)
            )
        if kind == "getitem":
            index = meta["index"]
            return lambda: values.__setitem__(out, values[a][index])
        if kind == "sum":
            axis, keepdims = meta["axis"], meta["keepdims"]

            def fwd():
                values[out] = values[a].sum(
                    axis=axis, keepdims=keepdims, out=out_arr()
                )
            return fwd
        if kind == "tanh":
            return lambda: values.__setitem__(
                out, np.tanh(values[a], out=out_arr())
            )
        if kind == "relu":
            return lambda: values.__setitem__(
                out, np.maximum(values[a], 0.0, out=out_arr())
            )
        if kind == "sigmoid":
            return lambda: values.__setitem__(
                out, 1.0 / (1.0 + np.exp(-np.clip(values[a], -60.0, 60.0)))
            )
        if kind == "exp":
            return lambda: values.__setitem__(
                out, np.exp(np.clip(values[a], -700.0, 700.0),
                            out=out_arr())
            )
        if kind == "log":
            return lambda: values.__setitem__(
                out, np.log(values[a], out=out_arr())
            )
        if kind == "sqrt":
            return lambda: values.__setitem__(
                out, np.sqrt(values[a], out=out_arr())
            )
        if kind == "abs":
            return lambda: values.__setitem__(
                out, np.abs(values[a], out=out_arr())
            )
        if kind == "clip_min":
            minimum = meta["minimum"]
            return lambda: values.__setitem__(
                out, np.maximum(values[a], minimum, out=out_arr())
            )
        if kind == "spmm":
            csr = meta["csr"]
            return lambda: values.__setitem__(
                out, np.asarray(csr @ values[a])
            )
        if kind in ("concat", "stack"):
            axis = meta["axis"]
            join = np.concatenate if kind == "concat" else np.stack
            slots = ins
            return lambda: values.__setitem__(
                out, join([values[s] for s in slots], axis=axis)
            )
        if kind == "threshold_mask":
            threshold = meta["threshold"]

            def fwd():
                keep = values[a] < threshold
                values[out] = np.where(keep, values[a], 0.0)
            return fwd
        if kind == "softmax":
            axis = meta["axis"]

            def fwd():
                logits = values[a]
                shifted = logits - logits.max(axis=axis, keepdims=True)
                exp = np.exp(shifted)
                values[out] = exp / exp.sum(axis=axis, keepdims=True)
            return fwd
        if kind == "log_softmax":
            axis = meta["axis"]

            def fwd():
                logits = values[a]
                shifted = logits - logits.max(axis=axis, keepdims=True)
                log_z = np.log(np.exp(shifted).sum(
                    axis=axis, keepdims=True
                ))
                values[out] = shifted - log_z
            return fwd
        if kind == "gcn_layer":
            csr, activation = meta["csr"], meta["activation"]
            h, w = ins
            scratch = meta.setdefault("scratch", [None])
            out_arr_fn = out_arr

            def fwd():
                pre = np.asarray(csr @ (values[h] @ values[w]))
                if activation == "tanh":
                    values[out] = np.tanh(pre, out=out_arr_fn())
                else:
                    scratch[0] = pre
                    values[out] = np.maximum(pre, 0.0, out=out_arr_fn())
            return fwd
        if kind == "gram_residual_norm":
            target = meta["target"]
            # The forward's (C+Cᵀ)H and HᵀH, kept for the backward.
            scratch = meta.setdefault("scratch", [None])

            def fwd():
                values[out], scratch[0] = gram_residual_forward(
                    target, values[a]
                )
            return fwd
        raise AssertionError(f"no forward kernel for op kind {kind!r}")

    def _acc(self, grads: list, slot: int, grad: np.ndarray) -> None:
        """Mirror ``Tensor._accumulate`` for a tape slot."""
        kind = self._slot_kinds[slot]
        if kind == _SLOT_PARAM:
            self._params[slot]._accumulate(grad)
            return
        if kind == _SLOT_CONST:
            return
        value = self._values[slot]
        grad = _unbroadcast(
            np.asarray(grad, dtype=value.dtype), value.shape
        )
        if grads[slot] is None:
            grads[slot] = grad.copy()
        else:
            grads[slot] += grad

    def _build_bwd(
        self, op: _TapeOp
    ) -> Optional[Callable[[list, np.ndarray], None]]:
        """One backward kernel mirroring the eager closure's expressions."""
        if not self._slot_requires[op.out]:
            return None
        values = self._values
        acc = self._acc
        requires = self._slot_requires
        kind, meta = op.kind, op.meta
        ins = op.inputs
        a = ins[0] if ins else -1
        b = ins[1] if len(ins) > 1 else -1
        need_a = requires[a] if ins else False
        need_b = requires[b] if len(ins) > 1 else False
        if kind == "add":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g)
                if need_b:
                    acc(grads, b, g)
            return bwd
        if kind == "neg":
            return lambda grads, g: acc(grads, a, -g)
        if kind == "sub":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g)
                if need_b:
                    acc(grads, b, -g)
            return bwd
        if kind == "mul":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g * values[b])
                if need_b:
                    acc(grads, b, g * values[a])
            return bwd
        if kind == "div":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g / values[b])
                if need_b:
                    acc(grads, b, -g * values[a] / (values[b] ** 2))
            return bwd
        if kind == "pow":
            exponent = meta["exponent"]
            return lambda grads, g: acc(
                grads, a, g * exponent * values[a] ** (exponent - 1)
            )
        if kind == "matmul":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g @ values[b].T)
                if need_b:
                    acc(grads, b, values[a].T @ g)
            return bwd
        if kind == "transpose":
            return lambda grads, g: acc(grads, a, g.T)
        if kind == "reshape":
            original = self._slot_shapes[a]
            return lambda grads, g: acc(grads, a, g.reshape(original))
        if kind == "getitem":
            index = meta["index"]
            shape = self._slot_shapes[a]
            dtype = self.dtype

            def bwd(grads, g):
                full = np.zeros(shape, dtype=dtype)
                _index_add(full, index, g)
                acc(grads, a, full)
            return bwd
        if kind == "sum":
            axis, keepdims = meta["axis"], meta["keepdims"]
            in_shape = self._slot_shapes[a]

            def bwd(grads, g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                acc(grads, a, np.broadcast_to(g, in_shape))
            return bwd
        out = op.out
        if kind == "tanh":
            return lambda grads, g: acc(
                grads, a, g * (1.0 - values[out] ** 2)
            )
        if kind == "relu":
            return lambda grads, g: acc(grads, a, g * (values[a] > 0.0))
        if kind == "sigmoid":
            def bwd(grads, g):
                s = values[out]
                acc(grads, a, g * s * (1.0 - s))
            return bwd
        if kind == "exp":
            return lambda grads, g: acc(grads, a, g * values[out])
        if kind == "log":
            return lambda grads, g: acc(grads, a, g / values[a])
        if kind == "sqrt":
            return lambda grads, g: acc(
                grads, a, g * 0.5 / np.maximum(values[out], 1e-300)
            )
        if kind == "abs":
            return lambda grads, g: acc(grads, a, g * np.sign(values[a]))
        if kind == "clip_min":
            minimum = meta["minimum"]
            return lambda grads, g: acc(
                grads, a, g * (values[a] > minimum)
            )
        if kind == "spmm":
            csr_t = transposed_csr(meta["csr"])
            return lambda grads, g: acc(grads, a, csr_t @ g)
        if kind in ("concat", "stack"):
            axis = meta["axis"]
            slots = ins
            slot_requires = [requires[s] for s in slots]
            if kind == "concat":
                sizes = [self._slot_shapes[s][axis] for s in slots]
                offsets = np.cumsum([0] + sizes)

                def bwd(grads, g):
                    for s, needed, start, stop in zip(
                        slots, slot_requires, offsets[:-1], offsets[1:]
                    ):
                        if needed:
                            index = [slice(None)] * g.ndim
                            index[axis] = slice(start, stop)
                            acc(grads, s, g[tuple(index)])
                return bwd

            def bwd(grads, g):
                slabs = np.moveaxis(g, axis, 0)
                for s, needed, slab in zip(slots, slot_requires, slabs):
                    if needed:
                        acc(grads, s, slab)
            return bwd
        if kind == "threshold_mask":
            threshold = meta["threshold"]
            return lambda grads, g: acc(
                grads, a, g * (values[a] < threshold)
            )
        if kind == "softmax":
            axis = meta["axis"]

            def bwd(grads, g):
                soft = values[out]
                inner = (g * soft).sum(axis=axis, keepdims=True)
                acc(grads, a, soft * (g - inner))
            return bwd
        if kind == "log_softmax":
            axis = meta["axis"]

            def bwd(grads, g):
                probs = np.exp(values[out])
                inner = g.sum(axis=axis, keepdims=True)
                acc(grads, a, g - probs * inner)
            return bwd
        if kind == "gcn_layer":
            csr_t = transposed_csr(meta["csr"])
            activation = meta["activation"]
            scratch = meta.setdefault("scratch", [None])
            h, w = ins

            def bwd(grads, g):
                # The three eager adjoints, applied in eager's order on
                # single-consumer intermediates (see tests/test_tape.py
                # for the gradcheck + bitwise gates).
                if activation == "tanh":
                    g2 = g * (1.0 - values[out] ** 2)
                else:
                    g2 = g * (scratch[0] > 0.0)
                gz = csr_t @ g2
                if need_a:
                    acc(grads, h, gz @ values[w].T)
                if need_b:
                    acc(grads, w, values[h].T @ gz)
            return bwd
        if kind == "gram_residual_norm":
            target = meta["target"]
            scratch = meta.setdefault("scratch", [None])
            return lambda grads, g: acc(grads, a, gram_residual_adjoint(
                target, values[out], scratch[0], g
            ))
        raise AssertionError(f"no backward kernel for op kind {kind!r}")

    # -- execution ------------------------------------------------------
    def _load_params(self) -> None:
        for slot, param in self._params.items():
            data = param.data
            if data.dtype != self.dtype:
                data = data.astype(self.dtype)
            self._values[slot] = data

    def replay(self) -> Tuple[Tensor, Dict[str, float]]:
        """Execute the tape forward; return the output tensor + watch values.

        The returned tensor reads the replayed value and carries a
        backward hook that runs the tape's reverse pass, accumulating
        into the captured parameters' ``.grad`` buffers — so the
        training loop's ``total.backward()`` / ``optimizer.step()``
        sequence works unchanged.  The output stays valid until the next
        ``replay()`` call (value buffers are reused).
        """
        from ..observability import get_tracer

        targets = observers()
        with get_tracer().span("tape.replay", ops=len(self._forward)):
            self._load_params()
            if not targets:
                for op in self._forward:
                    op.fwd()
            else:
                for op in self._forward:
                    started = time.perf_counter()
                    op.fwd()
                    notify(targets, OpEvent(
                        op.kind, "forward", started,
                        time.perf_counter() - started, op.flops, op.shape,
                    ))
        watched: Dict[str, float] = {}
        for label, slot in self._watches:
            watched[label] = watched.get(label, 0.0) + float(
                self._values[slot]
            )
        return self._wrap_output(), watched

    def _run_backward(self, seed: np.ndarray) -> None:
        grads: List[Optional[np.ndarray]] = [None] * len(self._slot_kinds)
        self._acc(grads, self._output_slot, seed)
        targets = observers()
        if not targets:
            for op in self._backward_ops:
                grad = grads[op.out]
                if grad is not None:
                    op.bwd(grads, grad)
            return
        for op in self._backward_ops:
            grad = grads[op.out]
            if grad is None:
                continue
            started = time.perf_counter()
            op.bwd(grads, grad)
            notify(targets, OpEvent(
                op.kind, "backward", started,
                time.perf_counter() - started, op.bwd_flops, op.shape,
            ))

    def _wrap_output(self) -> Tensor:
        # A leaf-like tensor whose backward (fired once its gradient is
        # fully accumulated) runs the tape's reverse pass.
        value = self._values[self._output_slot]
        tensor = Tensor(value)
        # The constructor coerces to float64; the output must expose the
        # replayed array itself (float32 under the fast policy).
        tensor.data = value
        if self._slot_requires[self._output_slot]:
            tensor.requires_grad = True
            tensor._backward = self._run_backward
        return tensor

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._forward)

    def op_kinds(self) -> List[str]:
        """Forward-order op kinds (fusion-pass inspection)."""
        return [op.kind for op in self._forward]

    def total_flops(self) -> int:
        """Static forward+backward FLOP estimate for one replay."""
        return sum(
            op.flops for op in self._forward
        ) + sum(op.bwd_flops for op in self._backward_ops)
