"""Free-function differentiable operations on :class:`~repro.autograd.Tensor`.

These complement the methods on ``Tensor`` with operations that either take
multiple tensors (``concat``, ``stack``), mix sparse and dense operands
(``spmm``, ``gram_residual_norm``), or implement the paper-specific pieces
(``gram_residual_norm`` for the Eq 7 consistency term, ``threshold_mask``
for the σ_< gate of the adaptivity loss, Eq 9).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .primitives import elementwise, free, primitive
from .tensor import Tensor

__all__ = [
    "spmm",
    "gram_residual_norm",
    "concat",
    "stack",
    "row_norms",
    "frobenius_norm",
    "normalize_rows",
    "threshold_mask",
    "softmax",
    "log_softmax",
    "dropout_mask",
]


#: (id(matrix), kind) → (weak reference to the matrix, derived value).
_DERIVED: Dict[Tuple[int, str], Tuple[weakref.ref, Any]] = {}


def _derived(matrix: sp.spmatrix, kind: str,
             build: Callable[[sp.spmatrix], Any]) -> Any:
    """``build(matrix)``, computed once per live sparse matrix object.

    Sparse operands (propagation matrices) are constants that live as
    long as their training run, so what is derived from them — the
    transposed CSR, the Eq 7 target — is built once and dropped when the
    matrix is collected.  Callers must not mutate a matrix after use.
    """
    key = (id(matrix), kind)
    entry = _DERIVED.get(key)
    if entry is not None and entry[0]() is matrix:
        return entry[1]
    value = build(matrix)
    _DERIVED[key] = (
        weakref.ref(matrix, lambda _ref: _DERIVED.pop(key, None)), value
    )
    return value


def transposed_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    """``csr.T`` as a CSR matrix, built once per matrix.

    Every spmm adjoint (eager ``spmm`` and the tape's ``spmm`` and fused
    ``gcn_layer`` kernels) multiplies by this one object, so the float64
    tape stays bitwise equal to eager.
    """
    return _derived(csr, "transpose", lambda matrix: matrix.T.tocsr())


def _spmm_flops(args: tuple, kwargs: dict, out: Tensor) -> tuple:
    """2 FLOPs per stored entry per dense column; the adjoint is one spmm."""
    sparse = args[0] if args else kwargs["sparse_matrix"]
    cols = out.data.shape[1] if out.data.ndim == 2 else 1
    forward = 2 * int(sparse.nnz) * int(cols)
    return forward, forward


def _softmax_flops(args: tuple, kwargs: dict, out: Tensor) -> tuple:
    """Shift, exp, sum and scale: about four FLOPs per element each way."""
    size = 4 * int(out.data.size)
    return size, size


@primitive("spmm", flops=_spmm_flops)
def spmm(sparse_matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse @ dense product where the sparse operand is a constant.

    The GCN propagation rule (Eq 1) multiplies the fixed normalized Laplacian
    ``C`` with the parameter-dependent matrix ``H W``.  ``C`` never requires
    gradients, so the adjoint only flows into ``dense``:

        d/d(dense) [C @ dense] applied to G  =  C.T @ G
    """
    if not sp.issparse(sparse_matrix):
        raise TypeError("spmm expects a scipy sparse matrix as the left operand")
    csr = sparse_matrix.tocsr()
    out_data = csr @ dense.data

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(transposed_csr(csr) @ grad)

    return Tensor._make(np.asarray(out_data), (dense,), backward)


class GramTarget:
    """The constant operand of :func:`gram_residual_norm`, in float64.

    Holds C as CSR, C + Cᵀ as CSR and ‖C‖²_F.  Build it with
    :func:`gram_target`, once per matrix: eager calls and tape replays of
    every epoch share it.
    """

    __slots__ = ("csr", "sym", "norm_sq")

    def __init__(self, matrix: sp.spmatrix) -> None:
        if not sp.issparse(matrix):
            raise TypeError("GramTarget expects a scipy sparse matrix")
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"C must be square, got shape {csr.shape}")
        self.csr = csr
        self.sym = (csr + csr.T).tocsr()
        self.norm_sq = float(np.dot(csr.data, csr.data))


def gram_target(matrix: "sp.spmatrix | GramTarget") -> GramTarget:
    """The :class:`GramTarget` of ``matrix``, built once per matrix."""
    if isinstance(matrix, GramTarget):
        return matrix
    return _derived(matrix, "gram_target", GramTarget)


#: Rows of C − HHᵀ the cancellation guard materializes at once.
GUARD_BLOCK_ROWS = 256
#: The guard takes over when ‖C − HHᵀ‖²_F falls below this fraction of
#: ‖C‖²_F + ‖HᵀH‖²_F: the factored sum then cancels too many digits.
GUARD_RATIO = 1e-4


def _residual_blocks(target: GramTarget, hidden: np.ndarray):
    """Yield ``(rows, HHᵀ − C)`` in blocks of :data:`GUARD_BLOCK_ROWS`."""
    n = hidden.shape[0]
    for start in range(0, n, GUARD_BLOCK_ROWS):
        rows = slice(start, min(start + GUARD_BLOCK_ROWS, n))
        block = hidden[rows] @ hidden.T
        part = target.csr[rows].tocoo()
        block[part.row, part.col] -= part.data
        yield rows, block


def gram_residual_forward(target: GramTarget, hidden: np.ndarray) -> tuple:
    """``(‖C − HHᵀ‖_F, state)`` in float64; ``state`` feeds the adjoint.

    The factored form √(‖C‖²_F − ⟨H, (C+Cᵀ)H⟩ + ‖HᵀH‖²_F) costs one
    sparse product and one n·d² GEMM.  When the residual is small next
    to the two large terms (an almost exact fit), the sum is recomputed
    from row blocks of C − HHᵀ instead.
    """
    h = np.asarray(hidden, dtype=np.float64)
    sym_h = np.asarray(target.sym @ h)
    gram = h.T @ h
    gram_sq = float(np.vdot(gram, gram))
    residual_sq = target.norm_sq - float(np.vdot(h, sym_h)) + gram_sq
    if residual_sq < GUARD_RATIO * (target.norm_sq + gram_sq):
        residual_sq = sum(
            float(np.vdot(block, block))
            for _rows, block in _residual_blocks(target, h)
        )
        sym_h = gram = None
    value = np.asarray(np.sqrt(max(residual_sq, 0.0)))
    return value, (h, sym_h, gram)


def gram_residual_adjoint(target: GramTarget, value: np.ndarray,
                          state: tuple, grad: np.ndarray) -> np.ndarray:
    """``grad · (2H(HᵀH) − (C+Cᵀ)H) / ‖C − HHᵀ‖_F`` in float64."""
    h, sym_h, gram = state
    if value == 0.0:
        return np.zeros_like(h)
    if sym_h is None:
        # The guarded path: (Q + Qᵀ)H with Q = HHᵀ − C, block by block.
        direction = np.zeros_like(h)
        for rows, block in _residual_blocks(target, h):
            direction[rows] += block @ h
            direction += block.T @ h[rows]
    else:
        direction = 2.0 * (h @ gram) - sym_h
    return direction * (grad / value)


def _gram_residual_flops(args: tuple, kwargs: dict, out: Tensor) -> tuple:
    """One sparse product and an n·d² GEMM forward; one GEMM backward."""
    target, hidden = args
    n, d = hidden.data.shape
    sparse = 2 * int(target.sym.nnz) * d
    return sparse + 2 * n * d * d + 2 * n * d, 2 * n * d * d + 2 * n * d


@primitive("gram_residual_norm", flops=_gram_residual_flops)
def gram_residual_norm(target: GramTarget, hidden: Tensor) -> Tensor:
    """‖C − H Hᵀ‖_F (Eq 7) without forming any n×n array.

    ``target`` is C's :class:`GramTarget` (see :func:`gram_target`).  The
    value and the gradient (2H(HᵀH) − (C+Cᵀ)H) / ‖C − HHᵀ‖_F are exact
    and always evaluated in float64; see :func:`gram_residual_forward`
    for the cancellation guard.  At a zero residual the gradient is zero.
    """
    value, state = gram_residual_forward(target, hidden.data)

    def backward(grad: np.ndarray) -> None:
        if hidden.requires_grad:
            hidden._accumulate(
                gram_residual_adjoint(target, value, state, grad)
            )

    return Tensor._make(value, (hidden,), backward)


@primitive("concat", flops=free)
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


@primitive("stack", flops=free)
def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    return Tensor._make(out_data, tuple(tensors), backward)


def row_norms(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-row Euclidean norms of a 2-D tensor, shape ``(n,)``.

    Used by the adaptivity loss: ``||H(v) - H*(v)||`` for every node v at
    once.  ``eps`` keeps the square root differentiable at zero rows.
    """
    squared = (matrix * matrix).sum(axis=1)
    return (squared + eps).sqrt()


def frobenius_norm(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """Frobenius norm of a matrix as a scalar tensor (Eq 7 building block)."""
    squared = (matrix * matrix).sum()
    return (squared + eps).sqrt()


def normalize_rows(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """L2-normalize each row; rows of (near-)zero norm are left tiny.

    Row-normalized embeddings make the inner-product alignment matrix
    (Eq 11) a cosine similarity, which is how alignment scores are made
    comparable across layers.
    """
    norms = row_norms(matrix, eps=eps)
    inverse = norms.reshape(len(matrix), 1) ** -1.0
    return matrix * inverse


@primitive("threshold_mask", flops=elementwise)
def threshold_mask(values: Tensor, threshold: float) -> Tensor:
    """The paper's σ_< activation (Eq 9): identity below ``threshold``, 0 above.

    Gradients flow only through entries below the threshold, implementing the
    confidence gate that ignores perturbations large enough to have destroyed
    a node's neighbourhood.
    """
    keep = values.data < threshold
    out_data = np.where(keep, values.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad * keep)

    return Tensor._make(out_data, (values,), backward)


@primitive("softmax", flops=_softmax_flops)
def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        logits._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (logits,), backward)


@primitive("log_softmax", flops=_softmax_flops)
def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        inner = grad.sum(axis=axis, keepdims=True)
        logits._accumulate(grad - probs * inner)

    return Tensor._make(out_data, (logits,), backward)


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask (constant w.r.t. gradients).

    Returned as a plain array so callers multiply tensors by it; scaling by
    ``1 / (1 - rate)`` keeps expectations unchanged at train time.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
