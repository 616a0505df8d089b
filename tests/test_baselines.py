from collections import Counter

import numpy as np
import pytest

from popgraph.baselines import dynamic_knn_population, knn_from_gram, wl_gram
from popgraph.data import Graph, SyntheticSpec, make_synthetic_dataset


def graph(node_count, edges):
    return Graph(node_count=node_count, edges=edges, features=np.ones((node_count, 1)), label=0)


TRIANGLE = graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = graph(3, [(0, 1), (1, 2)])


def counter_gram_oracle(graphs, iterations):
    """WL gram as per-round Counter histograms compared pair by pair in Python."""
    label_dict = {}

    def compress(key):
        return label_dict.setdefault(key, len(label_dict))

    histograms = []
    for g in graphs:
        neighbors = [[] for _ in range(g.node_count)]
        for u, v in g.edges:
            neighbors[u].append(v)
            if u != v:
                neighbors[v].append(u)
        labels = [compress(("init", len(nbrs))) for nbrs in neighbors]
        rounds = [Counter(labels)]
        for _ in range(iterations):
            labels = [compress((labels[v], tuple(sorted(labels[u] for u in neighbors[v]))))
                      for v in range(g.node_count)]
            rounds.append(Counter(labels))
        histograms.append(rounds)
    n = len(graphs)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = sum(
                float(sum(count * hb.get(label, 0) for label, count in ha.items()))
                for ha, hb in zip(histograms[i], histograms[j]))
    return gram


def knn_oracle(sim, k):
    """Per-row stable argsort, self skipped, first k kept, union-symmetrized."""
    n = sim.shape[0]
    adj = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(-sim[i], kind="stable")
        adj[i, [j for j in order if j != i][:k]] = 1.0
    return np.maximum(adj, adj.T)


def test_wl_gram_hand_computed():
    # Round 0 labels are degrees: triangle {2: 3}, path {1: 2, 2: 1}, so the
    # histogram products are 9, 3 and 2*2 + 1*1 = 5. Each refinement round
    # keeps one label for the triangle's nodes (9) and two for the path's
    # (5), and the two graphs share none of them (0).
    np.testing.assert_array_equal(wl_gram([TRIANGLE, PATH3], iterations=1),
                                  [[18.0, 3.0], [3.0, 10.0]])
    np.testing.assert_array_equal(wl_gram([TRIANGLE, PATH3]), [[36.0, 3.0], [3.0, 20.0]])


@pytest.mark.parametrize("iterations", [0, 1, 3])
@pytest.mark.parametrize("topology", ["cycle_vs_star", "ambiguous_features"])
def test_wl_gram_matches_counter_oracle(topology, iterations):
    rng = np.random.default_rng(iterations)
    for seed in rng.integers(0, 2**31, size=3):
        spec = SyntheticSpec(classes=int(rng.integers(2, 4)), graphs_per_class=int(rng.integers(3, 9)),
                             nodes_min=3, nodes_max=int(rng.integers(3, 12)), topology=topology,
                             feature_dim=2, noise_sigma=0.5, seed=int(seed))
        graphs = make_synthetic_dataset(spec)
        # self-loops, an edgeless graph and a one-node graph beside the generated ones
        graphs += [graph(4, [(0, 0), (0, 1), (2, 2)]), graph(3, []), graph(1, [(0, 0)])]
        gram = wl_gram(graphs, iterations)
        np.testing.assert_array_equal(gram, counter_gram_oracle(graphs, iterations))
        np.testing.assert_array_equal(gram, gram.T)


def test_wl_gram_rejects_negative_iterations():
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        wl_gram([TRIANGLE], iterations=-1)


def test_knn_from_gram_is_symmetric_with_min_degree_k():
    spec = SyntheticSpec(classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
                         topology="cycle_vs_star", feature_dim=2, noise_sigma=0.3)
    gram = wl_gram(make_synthetic_dataset(spec))
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


def test_knn_from_gram_matches_oracle_on_ties():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 40):
        upper = np.triu(rng.integers(0, 3, size=(n, n)), k=1)
        gram = (upper + upper.T + 3 * np.eye(n)).astype(float)  # few distinct values
        norms = np.sqrt(np.diag(gram))
        for k in range(1, min(n, 6)):
            np.testing.assert_array_equal(knn_from_gram(gram, k),
                                          knn_oracle(gram / np.outer(norms, norms), k))


def test_knn_from_gram_rejects_zero_norm_row():
    # a graph with no nodes has an all-zero gram row: its similarities would be 0/0
    gram = np.array([[4.0, 2.0, 0.0, 2.0], [2.0, 4.0, 0.0, 2.0],
                     [0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 0.0, 4.0]])
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="gram row 2 is all zero"):
            knn_from_gram(gram, k)


def test_dynamic_knn_matches_oracle_on_ties():
    rng = np.random.default_rng(6)
    for n in (2, 5, 9, 40):
        h = rng.integers(0, 3, size=(n, 2)).astype(float)  # integer points: tied distances
        d2 = ((h[:, None, :] - h[None, :, :]) ** 2).sum(axis=2)
        for k in range(1, min(n, 6)):
            np.testing.assert_array_equal(dynamic_knn_population(h, k), knn_oracle(-d2, k))


def test_dynamic_knn_rejects_k_not_below_n():
    h = np.random.default_rng(0).normal(size=(3, 2))
    assert dynamic_knn_population(h, 2).shape == (3, 3)
    for k in (3, 4):
        with pytest.raises(ValueError, match=f"k={k} must be smaller than n=3"):
            dynamic_knn_population(h, k)
