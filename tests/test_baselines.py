import re
from collections import Counter

import numpy as np
import pytest

from popgraph.baselines import dynamic_knn_population, knn_from_gram, random_population, wl_gram
from popgraph.data import Graph, GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.nn import ROW_BLOCK
from popgraph.tensor import ShapeError

# three row blocks, the last one ragged
BLOCKED_N = 2 * ROW_BLOCK + 5


def graph(node_count, edges):
    # two features, as many as the generated graphs below, so both stack in one batch
    return Graph(edges=edges, features=np.ones((node_count, 2)), label=0)


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
    batch = GraphBatch([TRIANGLE, PATH3])
    np.testing.assert_array_equal(wl_gram(batch, iterations=1), [[18.0, 3.0], [3.0, 10.0]])
    np.testing.assert_array_equal(wl_gram(batch), [[36.0, 3.0], [3.0, 20.0]])


@pytest.mark.parametrize("iterations", [0, 1, 3])
@pytest.mark.parametrize("topology", ["cycle_vs_star", "ambiguous_features"])
def test_wl_gram_matches_counter_oracle(topology, iterations):
    rng = np.random.default_rng(iterations)
    for seed in rng.integers(0, 2**31, size=3):
        spec = SyntheticSpec(classes=2, graphs_per_class=int(rng.integers(3, 9)),
                             nodes_min=3, nodes_max=int(rng.integers(3, 12)), topology=topology,
                             feature_dim=2, noise_sigma=0.5, seed=int(seed))
        # self-loops, an edgeless graph and a one-node graph beside the generated ones
        graphs = list(make_synthetic_dataset(spec)) + [
            graph(4, [(0, 0), (0, 1), (2, 2)]), graph(3, []), graph(1, [(0, 0)])]
        gram = wl_gram(GraphBatch(graphs), iterations)
        np.testing.assert_array_equal(gram, counter_gram_oracle(graphs, iterations))
        np.testing.assert_array_equal(gram, gram.T)


def test_wl_gram_matches_counter_oracle_across_row_blocks():
    spec = SyntheticSpec(classes=2, graphs_per_class=(BLOCKED_N + 1) // 2, nodes_min=3,
                         nodes_max=9, topology="cycle_vs_star", feature_dim=2, noise_sigma=0.5,
                         seed=7)
    graphs = list(make_synthetic_dataset(spec))[:BLOCKED_N - 2] + [
        graph(4, [(0, 0), (0, 1), (2, 2)]), graph(1, [(0, 0)])]
    np.testing.assert_array_equal(wl_gram(GraphBatch(graphs), 2), counter_gram_oracle(graphs, 2))


def test_wl_gram_rejects_negative_iterations():
    with pytest.raises(ValueError, match="iterations=-1 is below 0"):
        wl_gram(GraphBatch([TRIANGLE]), iterations=-1)


@pytest.mark.parametrize("iterations", [True, 1.5])
def test_wl_gram_rejects_iterations_that_are_not_an_integer(iterations):
    batch = GraphBatch([TRIANGLE, PATH3])
    with pytest.raises(ValueError, match=f"iterations={iterations!r} is not an integer"):
        wl_gram(batch, iterations)
    np.testing.assert_array_equal(wl_gram(batch, np.int64(2)), wl_gram(batch, 2))
    assert wl_gram(batch, 0).shape == (2, 2)


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
    for n in (2, 3, 7, 40, BLOCKED_N):
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


def test_knn_from_gram_rejects_a_negative_diagonal_entry():
    # a kernel gram's diagonal holds squared norms; the square root of -1 is NaN
    with pytest.raises(ValueError, match="gram row 1 has the diagonal entry -1.0"):
        knn_from_gram(np.diag([4.0, -1.0, 3.0]), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_knn_from_gram_rejects_non_finite_entry(value):
    gram = np.array([[4.0, 2.0, 1.0, 2.0], [2.0, 4.0, 0.0, 2.0],
                     [1.0, 0.0, 3.0, 1.0], [2.0, 2.0, 1.0, 4.0]])
    gram[0, 2] = gram[2, 0] = value
    with pytest.raises(ValueError, match="gram row 0 is not finite"):
        knn_from_gram(gram, 1)
    gram[0, 2] = gram[2, 0] = 1.0
    gram[3, 3] = value  # on the diagonal: the norm that row 3 is scaled by
    with pytest.raises(ValueError, match="gram row 3 is not finite"):
        knn_from_gram(gram, 1)


def test_dynamic_knn_matches_oracle_on_ties():
    rng = np.random.default_rng(6)
    # the last crosses the row blocks of the distances and of the kNN
    for n in (2, 5, 9, 40, BLOCKED_N):
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dynamic_knn_rejects_non_finite_row(value):
    h = np.random.default_rng(2).normal(size=(5, 2))
    h[3, 0] = value
    with pytest.raises(ValueError, match="embedding row 3 is not finite"):
        dynamic_knn_population(h, 2)


def knn_builders_with_inputs():
    """Each kNN builder with an input of 4 rows: a gram, or the rows themselves."""
    h = np.random.default_rng(1).normal(size=(4, 2))
    gram = h @ h.T + 10.0 * np.eye(4)  # positive diagonal
    return (knn_from_gram, gram), (dynamic_knn_population, h)


def test_knn_builders_reject_negative_k_and_give_no_edges_at_k_0():
    for build, x in knn_builders_with_inputs():
        np.testing.assert_array_equal(build(x, 0), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="k=-1 is below 0"):
            build(x, -1)


@pytest.mark.parametrize("k", [1.5, True])
def test_knn_builders_reject_a_k_that_is_not_an_integer(k):
    for build, x in knn_builders_with_inputs():
        with pytest.raises(ValueError, match=f"k={k!r} is not an integer"):
            build(x, k)


def test_knn_builders_take_a_numpy_integer_k():
    for build, x in knn_builders_with_inputs():
        np.testing.assert_array_equal(build(x, np.int64(2)), build(x, 2))


@pytest.mark.parametrize("shape", [(3, 4), (3,)])
def test_knn_from_gram_rejects_a_gram_that_is_not_square(shape):
    with pytest.raises(ShapeError, match=re.escape(f"not shape {shape}")):
        knn_from_gram(np.ones(shape), 1)


def test_dynamic_knn_rejects_rows_that_are_not_2d():
    with pytest.raises(ShapeError, match=r"2-D array of rows, got \(3,\)"):
        dynamic_knn_population(np.ones(3), 1)


def test_random_population_is_a_seeded_simple_graph():
    adj = random_population(30, 4.0, seed=3)
    np.testing.assert_array_equal(adj, adj.T)
    assert set(np.unique(adj)) <= {0.0, 1.0}
    np.testing.assert_array_equal(np.diag(adj), np.zeros(30))
    np.testing.assert_array_equal(random_population(30, 4.0, seed=3), adj)
    assert not np.array_equal(random_population(30, 4.0, seed=4), adj)


@pytest.mark.parametrize("n", [2, 7])
def test_random_population_extreme_degrees(n):
    np.testing.assert_array_equal(random_population(n, 0.0, seed=0), np.zeros((n, n)))
    complete = np.ones((n, n)) - np.eye(n)
    for degree in (n - 1, n + 5.5):
        np.testing.assert_array_equal(random_population(n, degree, seed=0), complete)


@pytest.mark.parametrize("n", [2, 7, BLOCKED_N])
def test_random_population_matches_one_unblocked_draw(n):
    for degree in (0.0, 4.0, n - 1):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            upper = np.triu(rng.random((n, n)) < min(1.0, degree / (n - 1)), k=1).astype(float)
            np.testing.assert_array_equal(random_population(n, degree, seed), upper + upper.T)


def test_random_population_mean_degree_near_target():
    # the mean degree is 2 * Binomial(124750, 0.02) / 500, whose sd is 0.2
    for seed in range(3):
        mean_degree = random_population(500, 10.0, seed).sum(axis=1).mean()
        assert abs(mean_degree - 10.0) < 0.8


@pytest.mark.parametrize(
    "n,degree,message",
    [(1, 0.0, "n=1 is below 2"), (5, -1.0, "expected_degree"),
     (5, float("nan"), "expected_degree"), (5, float("inf"), "expected_degree"),
     (20.5, 5.0, "n=20.5"), (True, 1.0, "n=True"), (5, None, "expected_degree")],
    ids=["one_node", "negative", "nan", "inf", "fractional_nodes", "bool_nodes", "no_degree"],
)
def test_random_population_rejects(n, degree, message):
    with pytest.raises(ValueError, match=message):
        random_population(n, degree, seed=0)


def test_random_population_rejects_a_bool_expected_degree():
    with pytest.raises(ValueError, match="expected_degree=True is not a finite real number"):
        random_population(4, True, 0)


@pytest.mark.parametrize("seed", [None, 1.5, True, -1])
def test_random_population_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    message = f"seed={seed!r} is below 0" if seed == -1 else f"seed={seed!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        random_population(5, 2.0, seed)
    np.testing.assert_array_equal(random_population(5, 2.0, np.int64(3)),
                                  random_population(5, 2.0, 3))


def memory_case(builder):
    """A builder's call at N = 512 and the N x N arrays it may hold: its result
    and the N x N input that it makes itself."""
    n = 512
    rng = np.random.default_rng(13)
    if builder == "wl_gram":
        spec = SyntheticSpec(classes=2, graphs_per_class=n // 2, nodes_min=3, nodes_max=8,
                             topology="ambiguous_features", feature_dim=2, noise_sigma=0.5)
        return n, 1, (wl_gram, make_synthetic_dataset(spec))  # rings: no zero in the gram
    if builder == "knn_from_gram":
        x = rng.normal(size=(n, 8))
        return n, 1, (knn_from_gram, x @ x.T, 5)
    if builder == "dynamic_knn_population":
        return n, 2, (dynamic_knn_population, rng.normal(size=(n, 8)), 5)
    return n, 1, (random_population, n, 5.0, 0)


@pytest.mark.parametrize(
    "builder", ["wl_gram", "knn_from_gram", "dynamic_knn_population", "random_population"])
def test_builders_hold_at_most_half_an_n_by_n_array_beyond_their_own(builder, traced):
    # beyond its N x N arrays, a builder holds row blocks of ROW_BLOCK rows
    n, squares, call = memory_case(builder)
    adj, peak, _ = traced(*call)
    assert adj.shape == (n, n)
    bound = (squares + 0.5) * n * n * 8
    assert peak <= bound, f"{peak} bytes at the peak, bound {bound}"
