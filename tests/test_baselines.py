import numpy as np
import pytest

from popgraph.baselines import dynamic_knn_population, knn_from_gram, wl_gram
from popgraph.data import Graph, SyntheticSpec, make_synthetic_dataset


def graph(node_count, edges):
    return Graph(node_count=node_count, edges=edges, features=np.ones((node_count, 1)), label=0)


TRIANGLE = graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = graph(3, [(0, 1), (1, 2)])


def test_wl_gram_hand_computed():
    # Round 0 labels are degrees: triangle {2: 3}, path {1: 2, 2: 1}, so the
    # histogram products are 9, 3 and 2*2 + 1*1 = 5. Each refinement round
    # keeps one label for the triangle's nodes (9) and two for the path's
    # (5), and the two graphs share none of them (0).
    np.testing.assert_array_equal(wl_gram([TRIANGLE, PATH3], iterations=1),
                                  [[18.0, 3.0], [3.0, 10.0]])
    np.testing.assert_array_equal(wl_gram([TRIANGLE, PATH3]), [[36.0, 3.0], [3.0, 20.0]])


def test_knn_from_gram_is_symmetric_with_min_degree_k():
    spec = SyntheticSpec(classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
                         topology="cycle_vs_star", feature_dim=2, noise_sigma=0.3)
    gram = wl_gram(make_synthetic_dataset(spec, seed=0))
    for k in (1, 3, 5):
        adj = knn_from_gram(gram, k)
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(np.diag(adj), 0.0)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        assert np.all(adj.sum(axis=1) >= k)


def test_knn_from_gram_breaks_ties_toward_lower_index():
    gram = np.ones((4, 4)) + np.eye(4)  # every pair equally similar
    expected = np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=float)
    np.testing.assert_array_equal(knn_from_gram(gram, 1), expected)


def test_dynamic_knn_rejects_k_not_below_n():
    h = np.random.default_rng(0).normal(size=(3, 2))
    assert dynamic_knn_population(h, 2).shape == (3, 3)
    for k in (3, 4):
        with pytest.raises(ValueError, match=f"k={k} must be smaller than n=3"):
            dynamic_knn_population(h, k)
