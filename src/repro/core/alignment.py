"""Alignment instantiation from multi-order embeddings (paper §VI-A).

Layer-wise alignment matrices ``S(l) = H_s(l) H_t(l)ᵀ`` (Eq 11; embeddings
are row-normalized so this is cosine similarity) are fused into the final
matrix ``S = Σ_l θ(l) S(l)`` (Eq 12).

:func:`layerwise_alignment_matrices` + :func:`aggregate_alignment` are the
only code that multiplies embeddings into scores: every consumer of S
(refinement, streaming, the serving index, GAlign) builds its blocks with
them, on any slice of source rows × target rows.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "layerwise_alignment_matrices",
    "aggregate_alignment",
    "alignment_matrix",
    "greedy_anchor_links",
    "alignment_quality",
]

#: Source rows per block when S is built or reduced block by block.
BLOCK_ROWS = 256


def layerwise_alignment_matrices(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Eq 11 for every layer l in [0, k].

    Both inputs are multi-order lists [H(0)..H(k)] of row-normalized
    embeddings from the *same* weight-shared model, so no reconciliation
    step is needed.  Either side may be a block of rows, giving the
    matching block of every S(l).
    """
    if len(source_embeddings) != len(target_embeddings):
        raise ValueError(
            f"layer count mismatch: {len(source_embeddings)} vs "
            f"{len(target_embeddings)}"
        )
    matrices = []
    for h_source, h_target in zip(source_embeddings, target_embeddings):
        if h_source.shape[1] != h_target.shape[1]:
            raise ValueError(
                f"embedding dims differ at a layer: {h_source.shape[1]} vs "
                f"{h_target.shape[1]}"
            )
        matrices.append(h_source @ h_target.T)
    return matrices


def aggregate_alignment(
    matrices: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> np.ndarray:
    """Eq 12: weighted sum of layer-wise matrices with importances θ(l).

    Accumulates ``θ(0)·S(0) + θ(1)·S(1) + …`` left to right on any block.
    """
    if len(matrices) != len(layer_weights):
        raise ValueError(
            f"{len(matrices)} matrices but {len(layer_weights)} weights"
        )
    if not matrices:
        raise ValueError("no layer-wise matrices to aggregate")
    total = layer_weights[0] * matrices[0]
    for matrix, weight in zip(matrices[1:], layer_weights[1:]):
        if matrix.shape != total.shape:
            raise ValueError("layer-wise matrices have inconsistent shapes")
        total += weight * matrix
    return total


def alignment_matrix(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> np.ndarray:
    """The dense S of Eq 11–12, filled one :data:`BLOCK_ROWS` block at a time.

    Bitwise equal to the blocks :func:`repro.core.streaming.iter_score_blocks`
    yields at its default size.
    """
    n_source = source_embeddings[0].shape[0]
    scores = np.empty(
        (n_source, target_embeddings[0].shape[0]),
        dtype=np.result_type(*source_embeddings, *target_embeddings),
    )
    for start in range(0, n_source, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        scores[rows] = aggregate_alignment(
            layerwise_alignment_matrices(
                [h[rows] for h in source_embeddings], target_embeddings
            ),
            layer_weights,
        )
    return scores


def greedy_anchor_links(scores: np.ndarray) -> dict:
    """Top-1 instantiation: each source node maps to its best target (§VI-A)."""
    return {int(v): int(t) for v, t in enumerate(scores.argmax(axis=1))}


def alignment_quality(scores: np.ndarray) -> float:
    """g(S) = Σ_v max S(v) — the greedy selection criterion of Alg 2."""
    return float(scores.max(axis=1).sum())
