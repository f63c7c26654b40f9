"""Seeded inputs for every workload.

Everything the program receives is generated here from the run's
``--seed``: the same seed gives identical inputs, another seed gives
other inputs of the same shape. Each input draws from its own stream
(``default_rng([seed, stream])``) so adding an input never shifts another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graphs import AlignmentPair, generators, noisy_copy_pair

# Stream ids: one per independent input.
_TRAIN_PAIR, _PRETRAIN_PAIR, _REALIGN_PAIR = 1, 2, 3
_EMBEDDINGS, _CLOSED_SOURCES, _OPEN_SOURCES, _OPEN_ARRIVALS = 4, 5, 6, 7

#: Graph shape shared by the alignment workloads.
BA_EDGES_PER_NODE = 3
ATTRIBUTES = 32
NOISE = 0.2

#: Serving artifact shape.
SERVE_NODES = 20_000
SERVE_LAYERS = 3
SERVE_DIM = 64
_DATA_CLUSTERS = 128
_CLUSTER_SPREAD = 1.2
_SOURCE_NOISE = 0.35

#: serve-open traffic: Zipf exponent over source ranks and batch size.
ZIPF_EXPONENT = 1.1
BATCH = 16


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def noisy_ba_pair(seed: int, nodes: int, stream: int) -> AlignmentPair:
    """Barabási–Albert graph and a permuted copy with 20% structure and
    attribute noise; the permutation is the ground truth."""
    rng = _rng(seed, stream)
    graph = generators.barabasi_albert(
        nodes, BA_EDGES_PER_NODE, rng, feature_dim=ATTRIBUTES
    )
    return noisy_copy_pair(
        graph, rng, structure_noise_ratio=NOISE, attribute_noise_ratio=NOISE,
        name=f"ba{nodes}-seed{seed}",
    )


def train_pair(seed: int) -> AlignmentPair:
    return noisy_ba_pair(seed, 1000, _TRAIN_PAIR)


def pretrain_pair(seed: int) -> AlignmentPair:
    return noisy_ba_pair(seed, 500, _PRETRAIN_PAIR)


def realign_pair(seed: int) -> AlignmentPair:
    return noisy_ba_pair(seed, 3000, _REALIGN_PAIR)


@dataclass
class ServingEmbeddings:
    """Per-layer unit-row embeddings with a planted alignment.

    Targets are clustered (a shared cluster id per node, fresh centres
    per layer); source ``i`` is a noisy copy of target ``planted[i]``.
    """

    source: List[np.ndarray]
    target: List[np.ndarray]
    planted: np.ndarray

    @property
    def layer_weights(self) -> List[float]:
        return [1.0 / len(self.source)] * len(self.source)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def serving_embeddings(seed: int) -> ServingEmbeddings:
    rng = _rng(seed, _EMBEDDINGS)
    membership = rng.integers(0, _DATA_CLUSTERS, SERVE_NODES)
    planted = rng.permutation(SERVE_NODES)
    source, target = [], []
    for _ in range(SERVE_LAYERS):
        centres = rng.standard_normal((_DATA_CLUSTERS, SERVE_DIM))
        layer = _unit_rows(
            centres[membership]
            + _CLUSTER_SPREAD * rng.standard_normal((SERVE_NODES, SERVE_DIM))
        )
        target.append(layer)
        source.append(_unit_rows(
            layer[planted]
            + _SOURCE_NOISE / np.sqrt(SERVE_DIM)
            * rng.standard_normal((SERVE_NODES, SERVE_DIM))
        ))
    return ServingEmbeddings(source, target, planted)


def closed_sources(seed: int) -> np.ndarray:
    """A permutation of the source ids: a closed loop walks it in order,
    so no source repeats and the result cache never hits."""
    return _rng(seed, _CLOSED_SOURCES).permutation(SERVE_NODES)


def zipf_ranks(seed: int) -> np.ndarray:
    """``ranks[r]`` is the source id of popularity rank ``r``."""
    return _rng(seed, _OPEN_SOURCES).permutation(SERVE_NODES)


def open_traffic(seed: int, rate: float, seconds: float):
    """Seeded Poisson arrivals of Zipf-distributed query batches.

    Returns ``(due, batches)``: ``due[i]`` is when batch ``i`` is due,
    in seconds from the start, and ``batches[i]`` its source ids. The
    count is fixed at ``round(rate * seconds)`` and the arrival times are
    uniform order statistics on ``[0, seconds)`` — a Poisson process
    conditioned on that count — so every seed offers the same load.
    """
    rng = _rng(seed, _OPEN_ARRIVALS)
    count = max(1, int(round(rate * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, count))
    weights = np.arange(1, SERVE_NODES + 1, dtype=np.float64) ** (
        -ZIPF_EXPONENT
    )
    picks = rng.choice(
        SERVE_NODES, size=(count, BATCH), p=weights / weights.sum()
    )
    return due, zipf_ranks(seed)[picks]
