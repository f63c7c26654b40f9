"""Tests for the consistency / adaptivity / combined losses."""

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.core import (
    GAlignConfig,
    MultiOrderGCN,
    adaptivity_loss,
    combined_loss,
    consistency_loss,
)
from repro.graphs import (
    AttributedGraph,
    apply_permutation,
    generators,
    propagation_matrix,
    random_permutation,
)


def embeddings_for(graph, seed=0, **kwargs):
    config = GAlignConfig(num_layers=2, embedding_dim=8, **kwargs)
    model = MultiOrderGCN(graph.num_features, config, np.random.default_rng(seed))
    return model.forward(graph)


def dense_residual(propagation, hidden):
    """Eq 7's dense float64 form: ‖C − HHᵀ‖_F and its gradient in H."""
    h = np.asarray(hidden, dtype=np.float64)
    residual = propagation.toarray() - h @ h.T
    value = np.linalg.norm(residual)
    return value, -(residual + residual.T) @ h / value


def planted_cliques(noise, cliques=20, size=20, seed=0):
    """C of ``cliques`` disjoint ``size``-cliques and H = its exact factor.

    Each clique's block of C is (1/size)·J, so C has rank ``cliques`` and
    the scaled block indicators H0 give H0 H0ᵀ = C exactly.  Returns C and
    H0 + ``noise``·N(0, 1): the residual shrinks with ``noise`` while
    ‖C‖²_F and ‖HᵀH‖²_F stay at ``cliques`` — the cancellation case.
    """
    edges = [
        (block * size + i, block * size + j)
        for block in range(cliques)
        for i, j in itertools.combinations(range(size), 2)
    ]
    n = cliques * size
    graph = AttributedGraph.from_edges(n, edges, np.ones((n, 1)))
    exact = np.zeros((n, cliques))
    exact[np.arange(n), np.arange(n) // size] = 1.0 / np.sqrt(size)
    rng = np.random.default_rng(seed)
    return propagation_matrix(graph), exact + noise * rng.normal(
        size=exact.shape
    )


CLIQUE_NOISE = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


class TestConsistencyLoss:
    def test_positive_scalar(self, small_graph):
        prop = propagation_matrix(small_graph)
        loss = consistency_loss(prop, embeddings_for(small_graph))
        assert loss.data.size == 1
        assert float(loss.data) > 0.0

    def test_requires_trained_layer(self, small_graph):
        prop = propagation_matrix(small_graph)
        with pytest.raises(ValueError):
            consistency_loss(prop, [Tensor(small_graph.features)])

    def test_zero_when_gram_matches_target(self, tiny_graph):
        prop = propagation_matrix(tiny_graph)
        # Construct H with H Hᵀ == C exactly via eigendecomposition.
        dense = prop.toarray()
        values, vectors = np.linalg.eigh(dense)
        values = np.clip(values, 0.0, None)  # PSD part
        h = vectors @ np.diag(np.sqrt(values))
        psd_target = h @ h.T
        loss = consistency_loss(prop, [Tensor(tiny_graph.features), Tensor(h)])
        expected = np.linalg.norm(dense - psd_target)
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_gradient_flows_to_weights(self, small_graph):
        config = GAlignConfig(num_layers=1, embedding_dim=4)
        model = MultiOrderGCN(
            small_graph.num_features, config, np.random.default_rng(0)
        )
        prop = propagation_matrix(small_graph)
        loss = consistency_loss(prop, model.forward(small_graph, prop))
        loss.backward()
        assert model.weights[0].grad is not None
        assert np.any(model.weights[0].grad != 0.0)


class TestFactoredConsistencyOracle:
    """The factored Eq 7 op against oracles that never form C − HHᵀ twice."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scale", [1e-2, 0.3, 1.0, 10.0])
    def test_matches_dense_float64_form(self, seed, scale):
        rng = np.random.default_rng(seed)
        graph = generators.barabasi_albert(60, 3, rng, feature_dim=4)
        prop = propagation_matrix(graph)
        hidden = Tensor(scale * rng.normal(size=(60, 8)), requires_grad=True)
        loss = consistency_loss(prop, [Tensor(graph.features), hidden])
        loss.backward()
        value, grad = dense_residual(prop, hidden.data)
        assert abs(float(loss.data) - value) <= 1e-12 * value
        assert np.max(np.abs(hidden.grad - grad)) <= 1e-10 * np.max(
            np.abs(grad)
        )

    def test_gradcheck(self, small_graph, rng):
        prop = propagation_matrix(small_graph)
        features = Tensor(small_graph.features)
        layers = [
            Tensor(rng.normal(size=(small_graph.num_nodes, 3)),
                   requires_grad=True)
            for _ in range(2)
        ]
        assert gradcheck(
            lambda h1, h2: consistency_loss(prop, [features, h1, h2]), layers
        )

    @pytest.mark.parametrize("noise", CLIQUE_NOISE)
    def test_cancellation_guard_on_planted_cliques(self, noise):
        prop, h = planted_cliques(noise)
        hidden = Tensor(h, requires_grad=True)
        loss = consistency_loss(prop, [Tensor(np.ones((len(h), 1))), hidden])
        loss.backward()
        value, grad = dense_residual(prop, h)
        assert abs(float(loss.data) - value) <= 1e-9 * value
        assert np.max(np.abs(hidden.grad - grad)) <= 1e-7 * np.max(
            np.abs(grad)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_metamorphic(self, seed):
        rng = np.random.default_rng(seed)
        graph = generators.barabasi_albert(50, 2, rng, feature_dim=3)
        perm = random_permutation(graph.num_nodes, rng)
        relabeled = apply_permutation(graph, perm)
        h = rng.normal(size=(graph.num_nodes, 6))
        h_relabeled = np.empty_like(h)
        h_relabeled[perm] = h  # node i became node perm[i]

        def loss_and_grad(g, data):
            hidden = Tensor(data, requires_grad=True)
            loss = consistency_loss(
                propagation_matrix(g), [Tensor(g.features), hidden]
            )
            loss.backward()
            return float(loss.data), hidden.grad

        value, grad = loss_and_grad(graph, h)
        value_p, grad_p = loss_and_grad(relabeled, h_relabeled)
        assert abs(value_p - value) <= 1e-12 * value
        np.testing.assert_allclose(
            grad_p[perm], grad, rtol=0.0, atol=1e-12 * np.max(np.abs(grad))
        )


class TestAdaptivityLoss:
    def test_zero_for_identical_embeddings(self, small_graph):
        embeddings = embeddings_for(small_graph)
        identity = np.arange(small_graph.num_nodes)
        loss = adaptivity_loss(embeddings, embeddings, identity, threshold=1.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-3)

    def test_positive_for_different_embeddings(self, small_graph):
        a = embeddings_for(small_graph, seed=0)
        b = embeddings_for(small_graph, seed=1)
        identity = np.arange(small_graph.num_nodes)
        loss = adaptivity_loss(a, b, identity, threshold=10.0)
        assert float(loss.data) > 0.0

    def test_threshold_masks_large_differences(self, small_graph):
        a = embeddings_for(small_graph, seed=0)
        b = embeddings_for(small_graph, seed=1)
        identity = np.arange(small_graph.num_nodes)
        masked = adaptivity_loss(a, b, identity, threshold=1e-9)
        assert float(masked.data) == pytest.approx(0.0)

    def test_correspondence_reorders(self, small_graph, rng):
        from repro.graphs import apply_permutation, random_permutation
        from repro.core import GraphAugmenter

        # With permutation-only augmentation (no noise), the adaptivity
        # loss must vanish by Prop 1 when correspondence is honored.
        augmenter = GraphAugmenter(structure_noise=0.0, attribute_noise=0.0,
                                   num_views=1, permute=True)
        view = augmenter.augment_once(small_graph, rng)
        config = GAlignConfig(num_layers=2, embedding_dim=8)
        model = MultiOrderGCN(small_graph.num_features, config, np.random.default_rng(0))
        original = model.forward(small_graph)
        augmented = model.forward(view.graph)
        loss = adaptivity_loss(original, augmented, view.correspondence, threshold=1.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-3)

    def test_rejects_layer_mismatch(self, small_graph):
        a = embeddings_for(small_graph)
        with pytest.raises(ValueError):
            adaptivity_loss(a, a[:-1], np.arange(small_graph.num_nodes))


class TestCombinedLoss:
    def test_gamma_weighting(self):
        j = combined_loss(Tensor(2.0), Tensor(4.0), gamma=0.75)
        assert float(j.data) == pytest.approx(0.75 * 2.0 + 0.25 * 4.0)

    def test_none_adaptivity_passthrough(self):
        j = combined_loss(Tensor(3.0), None, gamma=0.5)
        assert float(j.data) == pytest.approx(3.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            combined_loss(Tensor(1.0), Tensor(1.0), gamma=-0.1)
