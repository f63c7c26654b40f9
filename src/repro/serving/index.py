"""Exact top-k alignment index with norm-based candidate pruning.

Answering "who does source node v align to?" needs one row of the
aggregated alignment matrix ``S[v] = Σ_l θ(l) · h_v(l) · H_t(l)ᵀ``
(Eq 11-12), built by the :mod:`repro.core.alignment` kernel.  The full
row is an O(n₂·d) matmul; most of it is wasted when
only the k best targets are wanted.  :class:`AlignmentIndex` prunes that
work with a Cauchy-Schwarz score bound:

    score(v, u) = ⟨concat_l θ(l)·h_v(l), concat_l h_u(l)⟩
               ≤ ‖concat_l θ(l)·h_v(l)‖ · ‖concat_l h_u(l)‖

Per-target norms ``‖concat_l h_u(l)‖`` are precomputed once at build time
and aggregated into per-block maxima over contiguous target blocks.
Blocks are *scored* in descending max-norm order (so the running kth-best
score rises as fast as possible) but *stored* in the original target
order; once every query row's bound ``‖q‖·max_norm(block)`` falls
strictly below its current kth-best score, no remaining block can contain
a top-k member — not even a tie, because the skip test is strict — and
scoring stops.

Exactness guarantees:

* **Pruned ≡ dense.**  Skipped blocks provably contain only scores
  strictly below the final kth value, and scored blocks are computed by
  the same per-block kernel in both modes, so ``prune=True`` and
  ``prune=False`` return bit-identical targets *and* scores.
* **Deterministic ties.**  Selection uses the canonical order
  (descending score, ascending target id), so tied scores at the kth
  boundary resolve identically in every mode and for every ``k``
  (a top-k answer is always a prefix of the top-(k+1) answer).
* **Same batch, same bits.**  For one query batch, every path — pruned
  or dense, any ``k``, sharded, full-probe ANN rescoring — runs the same
  (batch × block) GEMMs through the same kernel.  Single queries are
  padded to two rows so the differently-reducing GEMV kernel is unused.
* **Batch composition is not guaranteed.**  A source's bits survive a
  change of batch only if the BLAS reduces a row alike at every GEMM row
  count: true at the small dims ``tests/test_serving_index.py`` pins, but
  at d=64, 3 layers, 3000 targets (OpenBLAS 0.3.31) scores moved by up
  to ~1e-14 (ids unchanged).

Versus :func:`repro.core.streaming.streaming_top_k` (same kernel on
full-width rows) the index agrees exactly when
``target_block_size >= n_target``; narrower column blocks may take a
different BLAS kernel and drift by a few ULPs, so
:meth:`AlignmentIndex.verify_against_streaming` compares with an
ULP-scale tolerance.

Non-finite scores are sanitized to ``-inf`` exactly like
:func:`~repro.core.streaming.iter_score_blocks`, so a fully-poisoned row
comes back as all ``-inf`` rather than NaN (the
:class:`~repro.serving.engine.QueryEngine` surfaces those as
``aligned: false``).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.alignment import aggregate_alignment, layerwise_alignment_matrices
from ..observability import MetricsRegistry, get_registry

__all__ = ["AlignmentIndex"]


class AlignmentIndex:
    """Precomputed target-side state for exact pruned top-k queries.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        Per-layer embedding matrices (H(0)..H(k) per side); memory-mapped
        arrays from an :class:`~repro.serving.AlignmentArtifact` work
        as-is.
    layer_weights:
        θ(l) per layer (same length as the embedding lists).
    target_block_size:
        Targets scored per block; the pruning granularity.
    prune:
        Default pruning mode for :meth:`top_k` (overridable per call).
    """

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        target_block_size: int = 512,
        prune: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not source_embeddings or not target_embeddings:
            raise ValueError("need at least one layer of embeddings per side")
        if len(source_embeddings) != len(target_embeddings):
            raise ValueError(
                f"layer count mismatch: {len(source_embeddings)} source vs "
                f"{len(target_embeddings)} target layers"
            )
        if len(layer_weights) != len(source_embeddings):
            raise ValueError(
                f"layer_weights has {len(layer_weights)} entries for "
                f"{len(source_embeddings)} layers"
            )
        if target_block_size < 1:
            raise ValueError(
                f"target_block_size must be >= 1, got {target_block_size}"
            )
        self._source = [np.asarray(h) for h in source_embeddings]
        self._target = [np.asarray(h) for h in target_embeddings]
        self._weights = [float(w) for w in layer_weights]
        for name, layers in (("source", self._source), ("target", self._target)):
            rows = layers[0].shape[0]
            for index, layer in enumerate(layers):
                if layer.ndim != 2 or layer.shape[0] != rows:
                    raise ValueError(
                        f"{name} layer {index} has shape {layer.shape}, "
                        f"expected 2-D with {rows} rows like layer 0"
                    )
        self.prune = bool(prune)
        self.block_size = int(target_block_size)
        self.registry = registry

        # Cauchy-Schwarz substrate: ‖concat_l h_u(l)‖ per target, block
        # maxima over contiguous blocks, and a norm-descending block
        # scoring order so the kth-best score rises as fast as possible.
        norms_sq = np.zeros(self.n_target)
        for layer in self._target:
            norms_sq += np.einsum("ij,ij->i", layer, layer)
        self._target_norms = np.sqrt(norms_sq)
        starts = np.arange(0, self.n_target, self.block_size)
        self._block_bounds = [
            (int(a), int(min(a + self.block_size, self.n_target)))
            for a in starts
        ]
        self._block_max_norm = np.array(
            [self._target_norms[a:e].max() for a, e in self._block_bounds]
        )
        self._block_order = np.argsort(-self._block_max_norm, kind="stable")

        # ‖concat_l θ(l)·h_v(l)‖ per source (the query side of the bound).
        query_sq = np.zeros(self.n_source)
        for weight, layer in zip(self._weights, self._source):
            query_sq += (weight * weight) * np.einsum("ij,ij->i", layer, layer)
        self._query_norms = np.sqrt(query_sq)

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, artifact, **kwargs) -> "AlignmentIndex":
        """Build an index over an :class:`AlignmentArtifact`'s embeddings."""
        return cls(
            artifact.source_embeddings,
            artifact.target_embeddings,
            artifact.layer_weights,
            **kwargs,
        )

    @property
    def n_source(self) -> int:
        return int(self._source[0].shape[0])

    @property
    def n_target(self) -> int:
        return int(self._target[0].shape[0])

    @property
    def num_blocks(self) -> int:
        return len(self._block_bounds)

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    def _query_batch(
        self, sources
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Validate a source batch: ``(sources, batch_ids, queries)``.

        A single query is padded to two rows: a (1, d) @ (d, n) product
        would take a GEMV kernel that reduces differently from the GEMMs
        every other path uses.  Callers keep the first ``sources.size`` rows.
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if sources.ndim != 1 or sources.size == 0:
            raise ValueError(
                f"sources must be a non-empty 1-D batch, got shape "
                f"{sources.shape}"
            )
        out_of_range = (sources < 0) | (sources >= self.n_source)
        if out_of_range.any():
            bad = int(sources[out_of_range][0])
            raise IndexError(
                f"source node {bad} out of range [0, {self.n_source})"
            )
        batch_ids = np.repeat(sources, 2) if sources.size == 1 else sources
        return sources, batch_ids, [layer[batch_ids] for layer in self._source]

    def _score_block(
        self, queries: List[np.ndarray], start: int, stop: int,
        registry: MetricsRegistry,
    ) -> np.ndarray:
        """θ-weighted scores of the query rows against targets [start, stop).

        The Eq 11–12 kernel every consumer of S uses, so any drift versus
        the streaming path comes only from BLAS kernel choice for
        differently shaped GEMMs (see module docstring).
        """
        block = aggregate_alignment(
            layerwise_alignment_matrices(
                queries, [target[start:stop] for target in self._target]
            ),
            self._weights,
        )
        finite = np.isfinite(block)
        if not finite.all():
            block = np.where(finite, block, -np.inf)
            registry.increment("serving.index.sanitized_blocks")
        return block

    def top_k(
        self,
        sources,
        k: int = 1,
        prune: Optional[bool] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k targets and scores for a batch of source nodes.

        Returns ``(targets, scores)`` of shape ``(len(sources), k)`` in
        canonical order (descending score, ascending target id).  ``k``
        is clamped to ``n_target``.  Scores may be ``-inf`` when a row's
        entries were sanitized (see module docstring).
        """
        registry = self._registry()
        started = time.perf_counter()
        sources, batch_ids, queries = self._query_batch(sources)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_target)
        prune = self.prune if prune is None else bool(prune)
        query_norms = self._query_norms[batch_ids]

        kth = np.full(batch_ids.size, -np.inf)
        top_buffer: Optional[np.ndarray] = None
        seen = 0
        computed: List[Tuple[int, int, np.ndarray]] = []
        blocks_scored = 0
        blocks_pruned = 0
        for position, block_index in enumerate(self._block_order):
            start, stop = self._block_bounds[block_index]
            if prune and seen >= k:
                bounds = query_norms * self._block_max_norm[block_index]
                if np.all(bounds < kth):
                    # Blocks are visited in descending max-norm order and
                    # kth only grows, so every remaining block prunes too.
                    blocks_pruned = self.num_blocks - position
                    break
            block = self._score_block(queries, start, stop, registry)
            computed.append((start, stop, block))
            blocks_scored += 1
            seen += stop - start
            merged = (
                block if top_buffer is None
                else np.concatenate([top_buffer, block], axis=1)
            )
            if merged.shape[1] >= k:
                part = -np.partition(-merged, k - 1, axis=1)[:, :k]
                top_buffer = part
                kth = part[:, k - 1]
            else:
                top_buffer = merged

        all_scores = np.concatenate([blk for _, _, blk in computed], axis=1)
        all_ids = np.concatenate(
            [np.arange(a, e, dtype=np.int64) for a, e, _ in computed]
        )
        # Padding rows (see _query_batch) are never selected from.
        out_targets = np.empty((sources.size, k), dtype=np.int64)
        out_scores = np.empty((sources.size, k))
        for row in range(sources.size):
            order = np.lexsort((all_ids, -all_scores[row]))[:k]
            out_targets[row] = all_ids[order]
            out_scores[row] = all_scores[row, order]

        registry.increment("serving.index.queries", int(sources.size))
        registry.increment("serving.index.blocks_scored", blocks_scored)
        registry.increment("serving.index.blocks_pruned", blocks_pruned)
        registry.observe(
            "serving.index.prune_fraction",
            blocks_pruned / max(1, self.num_blocks),
        )
        registry.record_time(
            "serving.index.query_time", time.perf_counter() - started
        )
        return out_targets, out_scores

    # ------------------------------------------------------------------
    def score_target_blocks(
        self, sources, blocks: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scores restricted to the given block ids.

        Returns ``(columns, scores)``: the ascending global target ids
        covered by ``blocks`` (deduplicated, sorted) and the ``(batch,
        len(columns))`` score matrix.  Each block goes through the same
        :meth:`_score_block` kernel — identical GEMM shapes to
        :meth:`top_k` over the same rows, hence identical bits — which
        is what lets the ANN tier's float rescoring reproduce exact
        answers (see :mod:`repro.serving.ann`).  Single queries are
        padded to two rows exactly like :meth:`top_k`.
        """
        registry = self._registry()
        sources, _, queries = self._query_batch(sources)
        block_ids = sorted({int(block) for block in blocks})
        if not block_ids:
            raise ValueError("blocks must name at least one block id")
        if block_ids[0] < 0 or block_ids[-1] >= self.num_blocks:
            bad = block_ids[0] if block_ids[0] < 0 else block_ids[-1]
            raise ValueError(
                f"block id {bad} out of range [0, {self.num_blocks})"
            )
        pieces = []
        columns = []
        for block in block_ids:
            start, stop = self._block_bounds[block]
            pieces.append(self._score_block(queries, start, stop, registry))
            columns.append(np.arange(start, stop, dtype=np.int64))
        scores = np.concatenate(pieces, axis=1)
        registry.increment("serving.index.blocks_scored", len(block_ids))
        return np.concatenate(columns), scores[:sources.size]

    def score_rows(self, sources) -> np.ndarray:
        """Full score rows ``S[sources]`` (no pruning), for verification."""
        return self.score_target_blocks(sources, range(self.num_blocks))[1]

    def verify_against_streaming(
        self, k: int = 1, block_size: int = 256, rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> bool:
        """Cross-check every source's top-k scores against the existing
        :func:`~repro.core.streaming.streaming_top_k` path.

        Compares descending-sorted scores, which is robust to two
        benign differences: streaming's tie order among equal scores is
        unspecified (the index's is canonical), and narrow column
        blocks may drift from the full-width product by a few ULPs (see
        module docstring) — hence the ULP-scale default tolerances.
        With ``target_block_size >= n_target`` the comparison is exact
        for any ``rtol``/``atol``.  Raises ``RuntimeError`` naming the
        first mismatching source on failure.
        """
        from ..core.streaming import streaming_top_k

        _, expected = streaming_top_k(
            self._source, self._target, self._weights,
            k=k, block_size=block_size, registry=self._registry(),
        )
        _, actual = self.top_k(np.arange(self.n_source), k=k)
        close = np.isclose(expected, actual, rtol=rtol, atol=atol)
        # -inf (sanitized) entries compare equal only to -inf.
        close |= expected == actual
        if not close.all():
            mismatch = np.flatnonzero(~np.all(close, axis=1))
            raise RuntimeError(
                f"index top-{k} scores diverge from streaming_top_k for "
                f"{mismatch.size} sources (first: {int(mismatch[0])})"
            )
        self._registry().increment("serving.index.streaming_checks")
        return True
