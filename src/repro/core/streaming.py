"""Memory-bounded alignment computation (paper §VI-C, space complexity).

The paper's space analysis notes that the full n₁×n₂ alignment matrix **S**
never has to be materialized: every consumer — top-k anchor extraction,
stability detection, the ranking metrics — only needs one row (or a block of
rows) of S at a time, computed on the fly from the multi-order embeddings.
That brings alignment-side memory from O(n²) down to O(n·d), which is what
makes the method viable on large networks.

This module provides that row-streaming layer.  Blocks are built by the
Eq 11–12 kernel of :mod:`repro.core.alignment`, so the default 256-row
blocks are bitwise the rows of the dense S the refiner and GAlign return:

* :func:`iter_score_blocks` — yield (row-range, block of S) pairs built from
  per-layer embeddings and layer weights, never holding all of S.
* :func:`streaming_top_k` — per-source top-k targets and scores.
* :func:`streaming_evaluate` — Success@q / MAP / AUC without full S.
* :func:`streaming_find_stable_nodes` — Eq 13 per row block, through
  :func:`repro.core.refine.find_stable_nodes`.
* :class:`StreamingAligner` — end-to-end: trained model + pair → anchors,
  in O(block · n₂) peak memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import AlignmentPair
from ..metrics import EvaluationReport
from ..observability import MetricsRegistry, get_registry, get_tracer
from ..parallel import (
    AttachedArrays,
    SharedArrayStore,
    WorkerPool,
    load_embeddings,
    publish_embeddings,
    resolve_workers,
)
from ..resilience import validate_pair
from .alignment import aggregate_alignment, layerwise_alignment_matrices
from .config import GAlignConfig
from .model import MultiOrderGCN
from .refine import find_stable_nodes

__all__ = [
    "iter_score_blocks",
    "streaming_top_k",
    "streaming_evaluate",
    "streaming_find_stable_nodes",
    "StreamingAligner",
]


def _sanitize_block(
    block: np.ndarray,
    start: int,
    stop: int,
    registry: MetricsRegistry,
    layer: Optional[int] = None,
) -> np.ndarray:
    """Replace non-finite score entries with ``-inf``, counting the event.

    Graceful degradation: NaN/Inf scores (broken embeddings, an
    overflowed layer) become ``-inf`` so they can never win top-k or
    outrank a true anchor, instead of poisoning every consumer.  The
    single sanitization path for aggregated blocks
    (:func:`iter_score_blocks`), parallel block workers, and the
    per-layer blocks of :func:`streaming_find_stable_nodes`.
    """
    finite = np.isfinite(block)
    if finite.all():
        return block
    block = np.where(finite, block, -np.inf)
    registry.increment("resilience.streaming_sanitized_blocks")
    payload = {
        "rows": [start, stop],
        "bad_entries": int(np.count_nonzero(~finite)),
    }
    if layer is not None:
        payload["layer"] = layer
    registry.emit("resilience.streaming_sanitized", payload)
    return block


def _build_block(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    start: int,
    stop: int,
    registry: MetricsRegistry,
) -> np.ndarray:
    """``Σ_l θ(l) · H_s(l)[start:stop] @ H_t(l)ᵀ``, sanitized and timed.

    The Eq 11–12 kernel of :mod:`repro.core.alignment` on one row block,
    shared by the serial iterator and the parallel block workers — which
    is what makes parallel streaming bit-identical to serial streaming.
    """
    started = time.perf_counter()
    block = aggregate_alignment(
        layerwise_alignment_matrices(
            [h[start:stop] for h in source_embeddings], target_embeddings
        ),
        layer_weights,
    )
    block = _sanitize_block(block, start, stop, registry)
    _record_block(registry, "streaming.block", started, start, stop)
    return block


def _record_block(
    registry: MetricsRegistry, event: str, started: float, start: int,
    stop: int,
) -> None:
    """Charge one block's build time to the ``streaming.*`` metrics."""
    elapsed = time.perf_counter() - started
    registry.record_time("streaming.block_time", elapsed)
    registry.increment("streaming.blocks")
    registry.increment("streaming.rows", stop - start)
    # Only block-build time is charged to the trace (as to the timer):
    # a generator span would bill the consumer's work to this frame.
    get_tracer().add_event(event, started, elapsed, rows=[start, stop])


def _block_ranges(n_source: int, block_size: int) -> List[Tuple[int, int]]:
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        (start, min(start + block_size, n_source))
        for start in range(0, n_source, block_size)
    ]


def _check_layers(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> None:
    if not source_embeddings:
        raise ValueError("need at least one layer of embeddings")
    if len(source_embeddings) != len(target_embeddings):
        raise ValueError("layer count mismatch between source and target")
    if len(source_embeddings) != len(layer_weights):
        raise ValueError("layer_weights must match the number of layers")


def iter_score_blocks(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[range, np.ndarray]]:
    """Yield (row range, S[rows]) blocks of the aggregated alignment matrix.

    Equivalent to Eq 11 + Eq 12 evaluated lazily: each block is
    ``Σ_l θ(l) · H_s(l)[rows] @ H_t(l)ᵀ``.  Block build time and row
    throughput land in the ``streaming.*`` metrics of ``registry`` (the
    process registry when unset); consumer time is not charged.

    Non-finite entries in a block are sanitized to ``-inf`` (counted in
    ``resilience.streaming_sanitized_blocks``) so downstream top-k and
    ranking consumers degrade gracefully instead of emitting NaN.
    """
    _check_layers(source_embeddings, target_embeddings, layer_weights)
    ranges = _block_ranges(source_embeddings[0].shape[0], block_size)
    if registry is None:
        registry = get_registry()
    for start, stop in ranges:
        yield range(start, stop), _build_block(
            source_embeddings, target_embeddings, layer_weights,
            start, stop, registry,
        )


def _block_top_k(
    block: np.ndarray, start: int, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-k (targets, scores) of one block, descending score."""
    # argpartition then sort the k winners per row.
    top = np.argpartition(block, -k, axis=1)[:, -k:]
    row_index = np.arange(block.shape[0])[:, None]
    order = np.argsort(block[row_index, top], axis=1)[:, ::-1]
    sorted_top = top[row_index, order]
    return sorted_top, block[row_index, sorted_top]


def _block_ranks(
    block: np.ndarray, start: int, anchors: Sequence[Tuple[int, int]]
) -> List[int]:
    """Pessimistic ranks of the given (source, target) anchors in a block."""
    ranks: List[int] = []
    for source, target in anchors:
        row = block[source - start]
        true_score = row[target]
        above = int(np.count_nonzero(row > true_score))
        tied = int(np.count_nonzero(row == true_score)) - 1
        ranks.append(above + tied + 1)
    return ranks


def _attached_block_task(
    manifest: Dict,
    num_layers: int,
    layer_weights: Tuple[float, ...],
    start: int,
    stop: int,
    reduce: Callable,
    argument,
):
    """Pool task: build one row block from shm embeddings and reduce it."""
    with AttachedArrays(manifest) as arrays:
        block = _build_block(
            load_embeddings(arrays, "src", num_layers),
            load_embeddings(arrays, "tgt", num_layers),
            layer_weights,
            start, stop,
            get_registry(),
        )
        return reduce(block, start, argument)


def _map_blocks(
    reduce: Callable,
    arguments: Sequence,
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    ranges: List[Tuple[int, int]],
    registry: Optional[MetricsRegistry],
    workers: Optional[int],
    label: str,
) -> List:
    """``reduce(block, start, argument)`` per row block, in order; blocks
    come from :func:`_build_block` serially or in a ``workers`` pool, so
    the results are bit-identical either way."""
    if registry is None:
        registry = get_registry()
    layer_weights = tuple(float(w) for w in layer_weights)
    workers = resolve_workers(workers)
    if not workers:
        return [
            reduce(
                _build_block(
                    source_embeddings, target_embeddings, layer_weights,
                    start, stop, registry,
                ),
                start, argument,
            )
            for (start, stop), argument in zip(ranges, arguments)
        ]
    with SharedArrayStore(registry=registry) as store:
        publish_embeddings(store, "src", source_embeddings)
        publish_embeddings(store, "tgt", target_embeddings)
        manifest = store.manifest()
        return WorkerPool(workers, registry=registry).map(
            _attached_block_task,
            [
                (manifest, len(layer_weights), layer_weights, start, stop,
                 reduce, argument)
                for (start, stop), argument in zip(ranges, arguments)
            ],
            labels=[f"{label}[{start}:{stop}]" for start, stop in ranges],
        )


def streaming_top_k(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    k: int = 1,
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source top-k targets and their scores, streamed by row blocks.

    Returns
    -------
    (targets, scores):
        ``targets[v]`` are v's k best target nodes (descending score) and
        ``scores[v]`` the matching alignment scores.

    Notes
    -----
    Returned scores may be ``-inf``: :func:`iter_score_blocks` sanitizes
    non-finite entries (NaN/Inf from broken embeddings) to ``-inf``, and
    when *every* entry of a row was sanitized there is no finite winner
    to fall back on — the row's "top" targets all carry ``-inf`` and the
    target ids are meaningless.  Consumers must treat such rows as
    unalignable instead of trusting the ids; the serving layer's
    :class:`~repro.serving.QueryEngine` surfaces them as
    ``aligned: false`` with the ``-inf`` entries dropped.

    ``workers >= 1`` scores blocks in a process pool (embeddings travel
    through shared memory); results are bit-identical to ``workers=0``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_layers(source_embeddings, target_embeddings, layer_weights)
    n_source = source_embeddings[0].shape[0]
    n_target = target_embeddings[0].shape[0]
    k = min(k, n_target)
    ranges = _block_ranges(n_source, block_size)
    all_targets = np.empty((n_source, k), dtype=np.int64)
    all_scores = np.empty((n_source, k))
    with get_tracer().span("streaming.top_k", k=k, n_source=n_source):
        blocks = _map_blocks(
            _block_top_k, [k] * len(ranges), source_embeddings,
            target_embeddings, layer_weights, ranges, registry, workers,
            "top_k",
        )
    for (start, stop), (targets, scores) in zip(ranges, blocks):
        all_targets[start:stop] = targets
        all_scores[start:stop] = scores
    return all_targets, all_scores


def streaming_evaluate(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    groundtruth: Dict[int, int],
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
) -> EvaluationReport:
    """Success@{1,10} / MAP / AUC computed without materializing S.

    Ranks are derived per streamed block with the same pessimistic
    tie-breaking as :func:`repro.metrics.anchor_ranks`.  ``workers >= 1``
    scores blocks in a process pool; the report is bit-identical to
    ``workers=0``.

    Raises
    ------
    ValueError
        If ``groundtruth`` is empty, or none of its source ids fall in
        ``[0, n_source)`` — evaluating zero anchors would silently yield
        NaN metrics, which always means the groundtruth belongs to a
        different (or transposed) pair.
    """
    if not groundtruth:
        raise ValueError("groundtruth is empty")
    _check_layers(source_embeddings, target_embeddings, layer_weights)
    n_source = source_embeddings[0].shape[0]
    n_target = target_embeddings[0].shape[0]
    if not any(0 <= source < n_source for source in groundtruth):
        keys = sorted(groundtruth)
        raise ValueError(
            f"no groundtruth source id falls in [0, {n_source}): got "
            f"{len(keys)} anchors with source ids in "
            f"[{keys[0]}, {keys[-1]}] — the groundtruth does not match "
            "the source embeddings (wrong pair, or source/target swapped)"
        )
    ranges = _block_ranges(n_source, block_size)
    anchors_per_block = [
        tuple(
            (source, groundtruth[source])
            for source in range(start, stop)
            if source in groundtruth
        )
        for start, stop in ranges
    ]
    rank_lists = _map_blocks(
        _block_ranks, anchors_per_block, source_embeddings, target_embeddings,
        layer_weights, ranges, registry, workers, "eval",
    )
    ranks = [rank for block_ranks in rank_lists for rank in block_ranks]
    rank_array = np.asarray(ranks)
    negatives = max(1, n_target - 1)
    return EvaluationReport(
        map=float(np.mean(1.0 / rank_array)),
        auc=float(np.mean((negatives + 1.0 - rank_array) / negatives)),
        success_at_1=float(np.mean(rank_array <= 1)),
        success_at_10=float(np.mean(rank_array <= 10)),
        num_anchors=len(rank_array),
    )


def streaming_find_stable_nodes(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    threshold: float,
    block_size: int = 256,
    tie_tolerance: float = 1e-9,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq 13 stable nodes without materializing any n₁×n₂ matrix.

    The paper's space analysis (§VI-C) observes that stable-node detection
    "can be done by separately iterating the rows of S"; per row block this
    rebuilds the per-layer scores and their aggregate and runs
    :func:`repro.core.refine.find_stable_nodes` (the one Eq 13) on them.

    Per-layer score blocks go through the same non-finite sanitization as
    :func:`iter_score_blocks`: NaN/Inf entries become ``-inf`` (counted in
    ``resilience.streaming_sanitized_blocks`` with the layer index in the
    emitted event), so a poisoned embedding demotes the affected nodes to
    "not stable" *visibly* instead of silently dropping them through NaN
    comparisons.
    """
    _check_layers(source_embeddings, target_embeddings, layer_weights)
    if registry is None:
        registry = get_registry()
    stable_sources = [np.empty(0, dtype=np.int64)]
    stable_targets = [np.empty(0, dtype=np.int64)]
    n_source = source_embeddings[0].shape[0]
    for start, stop in _block_ranges(n_source, block_size):
        started = time.perf_counter()
        layer_blocks = [
            _sanitize_block(block, start, stop, registry, layer=layer)
            for layer, block in enumerate(
                layerwise_alignment_matrices(
                    [h[start:stop] for h in source_embeddings],
                    target_embeddings,
                )
            )
        ]
        sources, targets = find_stable_nodes(
            layer_blocks, threshold,
            reference_scores=aggregate_alignment(layer_blocks, layer_weights),
            tie_tolerance=tie_tolerance,
        )
        stable_sources.append(sources + start)
        stable_targets.append(targets)
        _record_block(registry, "streaming.stable_block", started, start, stop)
    return np.concatenate(stable_sources), np.concatenate(stable_targets)


@dataclass
class StreamingAligner:
    """Anchor extraction from a trained model in O(block · n₂) memory.

    Example
    -------
    >>> # model trained by GAlignTrainer, pair as usual
    >>> aligner = StreamingAligner(model, config)        # doctest: +SKIP
    >>> anchors = aligner.top_anchors(pair, k=5)         # doctest: +SKIP
    """

    model: MultiOrderGCN
    config: GAlignConfig
    block_size: int = 256
    #: Metrics sink; ``None`` falls back to the process registry per call.
    registry: Optional[MetricsRegistry] = None

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _embeddings(self, pair: AlignmentPair) -> tuple:
        with self._registry().timed("streaming.embed_time"):
            return self.model.embed(pair.source), self.model.embed(pair.target)

    def top_anchors(
        self, pair: AlignmentPair, k: int = 1
    ) -> Dict[int, List[Tuple[int, float]]]:
        """{source: [(target, score), ...]} with the k best targets each."""
        validate_pair(pair, registry=self._registry())
        source_embeddings, target_embeddings = self._embeddings(pair)
        targets, scores = streaming_top_k(
            source_embeddings,
            target_embeddings,
            self.config.resolved_layer_weights(),
            k=k,
            block_size=self.block_size,
            registry=self._registry(),
        )
        return {
            source: list(zip(map(int, targets[source]), map(float, scores[source])))
            for source in range(targets.shape[0])
        }

    def evaluate(self, pair: AlignmentPair) -> EvaluationReport:
        """Streamed evaluation against the pair's ground truth."""
        validate_pair(pair, registry=self._registry())
        source_embeddings, target_embeddings = self._embeddings(pair)
        return streaming_evaluate(
            source_embeddings,
            target_embeddings,
            self.config.resolved_layer_weights(),
            pair.groundtruth,
            block_size=self.block_size,
            registry=self._registry(),
        )
