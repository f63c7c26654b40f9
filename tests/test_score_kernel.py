"""One Eq 11–13 kernel for every consumer of the alignment matrix S.

``layerwise_alignment_matrices`` + ``aggregate_alignment`` build every
block of S and ``find_stable_nodes`` is the one Eq 13 test.  These tests
pin what that buys:

* the block-wise refiner reproduces the dense Alg 2 loop it replaced
  (kept below as a reference) and never holds an n×n array per
  iteration;
* GAlign's dense scores are bitwise the streamed blocks;
* the consumers validate their inputs the same way.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AlignmentRefiner,
    GAlign,
    GAlignConfig,
    GAlignTrainer,
    MultiOrderGCN,
    apply_influence_gain,
    find_stable_nodes,
    iter_score_blocks,
    streaming_find_stable_nodes,
)
from repro.graphs import generators, noisy_copy_pair, weighted_propagation_matrix
from repro.serving import AlignmentIndex


def _pair(n, seed):
    rng = np.random.default_rng(seed)
    graph = generators.barabasi_albert(
        n, 3, rng, feature_dim=8, feature_kind="degree"
    )
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


def dense_refine(pair, model, config):
    """The dense Alg 2 loop the block pass replaced, as a reference.

    Every iteration materializes all layer-wise n×n matrices and their
    aggregate, and the best aggregate is carried across iterations.
    """
    weights = config.resolved_layer_weights()
    influence_source = np.ones(pair.source.num_nodes)
    influence_target = np.ones(pair.target.num_nodes)
    qualities, stable_counts = [], []
    best_scores, best_quality = None, float("-inf")
    for _ in range(max(1, config.refinement_iterations)):
        source_embeddings = model.embed(
            pair.source, weighted_propagation_matrix(pair.source, influence_source)
        )
        target_embeddings = model.embed(
            pair.target, weighted_propagation_matrix(pair.target, influence_target)
        )
        matrices = [hs @ ht.T for hs, ht in zip(source_embeddings, target_embeddings)]
        scores = np.zeros_like(matrices[0])
        for matrix, weight in zip(matrices, weights):
            scores += weight * matrix
        if not np.all(np.isfinite(scores)):
            break
        quality = float(scores.max(axis=1).sum())
        sources, targets = find_stable_nodes(
            matrices, config.stability_threshold, reference_scores=scores
        )
        qualities.append(quality)
        stable_counts.append((len(sources), len(np.unique(targets))))
        if quality > best_quality:
            best_quality, best_scores = quality, scores
        if len(sources) == 0:
            break
        apply_influence_gain(influence_source, sources, config.influence_gain)
        apply_influence_gain(influence_target, targets, config.influence_gain)
    return best_scores, qualities, stable_counts, influence_source, influence_target


class TestRefinerMatchesDenseReference:
    CONFIG = GAlignConfig(
        epochs=8, embedding_dim=16, refinement_iterations=6,
        stability_threshold=0.8, seed=0,
    )

    @pytest.fixture(scope="class", params=[300, 517], ids=["n300", "n517"])
    def trained(self, request):
        pair = _pair(request.param, seed=request.param)
        model, _ = GAlignTrainer(
            self.CONFIG, np.random.default_rng(request.param)
        ).train(pair)
        return pair, model

    def test_trajectory_and_scores(self, trained):
        pair, model = trained
        expected, qualities, stable_counts, alpha_s, alpha_t = dense_refine(
            pair, model, self.CONFIG
        )
        scores, log = AlignmentRefiner(self.CONFIG).refine(pair, model)

        # a run with anchors to find, so the Eq 13 pass is exercised
        assert sum(count for count, _ in stable_counts) > 0
        np.testing.assert_allclose(log.quality, qualities, rtol=1e-12, atol=0)
        assert list(zip(log.stable_sources, log.stable_targets)) == stable_counts
        np.testing.assert_array_equal(log.final_influence_source, alpha_s)
        np.testing.assert_array_equal(log.final_influence_target, alpha_t)
        assert scores.shape == expected.shape
        np.testing.assert_array_equal(scores.argmax(axis=1), expected.argmax(axis=1))
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=1e-12)


class TestRefinerMemory:
    def test_no_iteration_holds_an_n_by_n_array(self):
        n = 2000
        pair = _pair(n, seed=1)
        # An untrained model embeds as cheaply as a trained one; a low λ
        # keeps anchors stable so the loop runs every iteration.
        config = GAlignConfig(
            embedding_dim=16, refinement_iterations=5, stability_threshold=-1.0
        )
        model = MultiOrderGCN(
            pair.source.num_features, config, np.random.default_rng(1)
        )
        refiner = AlignmentRefiner(config)
        tracemalloc.start()
        try:
            scores, log = refiner.refine(pair, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.quality) >= 5
        assert scores.shape == (n, n)
        # The returned S is one n×n array; the dense loop peaked at about
        # (L + 3) of them.
        assert peak < 2 * n * n * 8, f"peak {peak / 1e6:.1f} MB"


class TestCrossConsumerEquality:
    @pytest.fixture(scope="class")
    def setup(self):
        pair = _pair(500, seed=5)
        config = GAlignConfig(embedding_dim=16, use_refinement=False, seed=5)
        model = MultiOrderGCN(
            pair.source.num_features, config, np.random.default_rng(5)
        )
        return pair, config, model

    def _streamed(self, source, target, weights):
        return np.vstack(
            [block for _, block in iter_score_blocks(source, target, weights)]
        )

    def test_galign_scores_are_streamed_blocks(self, setup):
        pair, config, model = setup
        result = GAlign(config, pretrained_model=model).align(pair)
        expected = self._streamed(
            model.embed(pair.source), model.embed(pair.target),
            config.resolved_layer_weights(),
        )
        np.testing.assert_array_equal(result.scores, expected)

    def test_galign_last_layer_scores_are_streamed_blocks(self, setup):
        pair, config, model = setup
        config = GAlignConfig(
            embedding_dim=16, use_refinement=False, multi_order=False, seed=5
        )
        result = GAlign(config, pretrained_model=model).align(pair)
        expected = self._streamed(
            model.embed(pair.source)[-1:], model.embed(pair.target)[-1:], [1.0]
        )
        np.testing.assert_array_equal(result.scores, expected)


class TestInputValidation:
    def test_score_rows_rejects_out_of_range_ids(self):
        rng = np.random.default_rng(0)
        layers = [rng.standard_normal((10, 4))]
        index = AlignmentIndex(layers, layers, [1.0])
        for bad in ([-1], [10], [3, -2]):
            with pytest.raises(IndexError, match="out of range"):
                index.score_rows(bad)
        with pytest.raises(ValueError, match="non-empty"):
            index.score_rows([])
        np.testing.assert_array_equal(
            index.score_rows(3)[0], index.score_rows([3, 4])[0]
        )

    def test_streaming_stable_nodes_rejects_weight_mismatch(self):
        rng = np.random.default_rng(0)
        layers = [rng.standard_normal((10, 4)) for _ in range(2)]
        with pytest.raises(ValueError, match="layer_weights"):
            streaming_find_stable_nodes(layers, layers, [1.0], threshold=0.5)

    def test_streaming_stable_nodes_rejects_layer_mismatch(self):
        rng = np.random.default_rng(0)
        source = [rng.standard_normal((10, 4)) for _ in range(2)]
        with pytest.raises(ValueError, match="layer count"):
            streaming_find_stable_nodes(
                source, source[:1], [0.5, 0.5], threshold=0.5
            )
