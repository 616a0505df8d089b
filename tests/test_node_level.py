import numpy as np
import pytest

from popgraph.data import Graph, GraphBatch
from popgraph.nn import GraphConv, add_matmul
from popgraph.node_level import NodeLevelConfig, NodeLevelModule, global_pool
from popgraph import tensor as T
from popgraph.tensor import Tensor, finite_difference_check


def single_graph_batch(n, edges, features, label=0):
    return GraphBatch([Graph(node_count=n, edges=edges, features=np.asarray(features, dtype=float), label=label)])


def dense_adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def conv(layer, batch):
    return layer.forward(Tensor(batch.features), batch.adjacency)


def test_edgeless_graph_only_self_term():
    rng = np.random.default_rng(0)
    layer = GraphConv(3, 2, rng)
    batch = single_graph_batch(4, [], rng.normal(size=(4, 3)))
    out = conv(layer, batch)
    expected = np.maximum(batch.features @ layer.w_self.data + layer.bias.data, 0.0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_two_node_identity_hand_sum():
    rng = np.random.default_rng(0)
    layer = GraphConv(1, 1, rng)
    layer.w_self.data = np.eye(1)
    layer.w_neigh.data = np.eye(1)
    layer.bias.data = np.zeros(1)
    batch = single_graph_batch(2, [(0, 1)], [[1.0], [2.0]])
    out = conv(layer, batch)
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])


def test_graph_conv_matches_dense_oracle():
    rng = np.random.default_rng(1)
    layer = GraphConv(4, 3, rng)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]
    batch = single_graph_batch(5, edges, rng.normal(size=(5, 4)))
    out = conv(layer, batch)
    a = dense_adjacency(5, edges)
    oracle = np.maximum(
        batch.features @ layer.w_self.data
        + a @ batch.features @ layer.w_neigh.data
        + layer.bias.data,
        0.0,
    )
    np.testing.assert_allclose(out.data, oracle, atol=1e-10)


def test_graph_conv_rejects_wrong_rows():
    rng = np.random.default_rng(2)
    layer = GraphConv(2, 2, rng)
    batch = single_graph_batch(3, [(0, 1)], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="rows"):
        layer.forward(Tensor(np.zeros((5, 2))), batch.adjacency)


def test_sparse_and_dense_adjacency_agree():
    rng = np.random.default_rng(8)
    layer = GraphConv(3, 2, rng)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (2, 2)]
    batch = single_graph_batch(4, edges, rng.normal(size=(4, 3)))
    mix = rng.normal(size=(4, 2))
    results = []
    for adjacency in (batch.adjacency, Tensor(batch.adjacency.toarray())):
        x = Tensor(batch.features, requires_grad=True)
        out = layer.forward(x, adjacency)
        (out * Tensor(mix)).sum().backward()
        results.append([out.data, x.grad] + [p.grad for p in layer.parameters()])
    for sparse, dense in zip(*results):
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


def unfused_conv(layer, x, adj):
    """The chain of generic ops the fused layer replaces: the oracle."""
    return T.relu(x @ layer.w_self + T.matmul(adj, x @ layer.w_neigh) + layer.bias)


def conv_inputs(rng, n, d_in, x_leaf, adj_kind):
    """(x, adjacency, precomputed adjacency @ x or None, gradient inputs) for
    one of the layer's input kinds. ``"sparse_ax"`` is f1's first layer: the
    batch's sparse adjacency plus its cached aggregated features."""
    edges = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 3.0 / n]
    adj = single_graph_batch(n, edges, np.zeros((n, 1))).adjacency
    if adj_kind.startswith("dense"):
        adj = Tensor(adj.toarray() * rng.random((n, n)), requires_grad=adj_kind == "dense_leaf")
    x = Tensor(rng.normal(size=(n, d_in)), requires_grad=x_leaf)
    ax = single_graph_batch(n, edges, x.data).aggregated_features if adj_kind == "sparse_ax" else None
    inputs = [x] if x_leaf else []
    return x, adj, ax, inputs + ([adj] if adj_kind == "dense_leaf" else [])


# f1 passes ``ax`` only for its constant input; the finite-difference check
# perturbs x in place, which a precomputed ``ax`` would not follow
CONV_INPUT_KINDS = [(x_leaf, adj_kind) for x_leaf in (False, True)
                    for adj_kind in ("sparse", "dense_constant", "dense_leaf")] + [(False, "sparse_ax")]


@pytest.mark.parametrize("x_leaf,adj_kind", CONV_INPUT_KINDS)
def test_graph_conv_gradient_check_every_input(x_leaf, adj_kind):
    rng = np.random.default_rng(11)
    layer = GraphConv(3, 4, rng)
    x, adj, ax, inputs = conv_inputs(rng, 6, 3, x_leaf, adj_kind)
    mix = Tensor(rng.normal(size=(6, 4)))
    for t in layer.parameters() + inputs:
        err = finite_difference_check(lambda _: (layer.forward(x, adj, ax) * mix).sum(), t)
        assert err < 1e-6, f"{t}: {err}"


@pytest.mark.parametrize("x_leaf,adj_kind", CONV_INPUT_KINDS)
def test_graph_conv_matches_unfused_chain(x_leaf, adj_kind):
    rng = np.random.default_rng(12)
    layer = GraphConv(8, 32, rng)
    x, adj, ax, inputs = conv_inputs(rng, 320, 8, x_leaf, adj_kind)
    mix = Tensor(rng.normal(size=(320, 32)))
    results = []
    for forward in (lambda x, adj: layer.forward(x, adj, ax),
                    lambda x, adj: unfused_conv(layer, x, adj)):
        out = forward(x, adj)
        (out * mix).sum().backward()
        results.append([out.data] + [t.grad for t in layer.parameters() + inputs])
    assert 0 < np.count_nonzero(results[0][0]) < results[0][0].size
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-12)
    assert all(p._backward is None for p in layer.forward(x, adj, ax)._parents)  # one tape entry


def test_graph_conv_rejects_aggregated_rows_of_another_shape():
    rng = np.random.default_rng(14)
    layer = GraphConv(2, 2, rng)
    batch = single_graph_batch(3, [(0, 1)], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="aggregated rows"):
        layer.forward(Tensor(batch.features), batch.adjacency, ax=np.zeros((3, 3)))


def matmul_operands(rng, layout):
    """(a, b) of shapes (6, 5) and (5, 4), laid out as ``layout`` says."""
    if layout == "contiguous":
        return rng.normal(size=(6, 5)), rng.normal(size=(5, 4))
    if layout == "transposed":  # Fortran-ordered views, as W.T in the backward
        return rng.normal(size=(5, 6)).T, rng.normal(size=(4, 5)).T
    return rng.normal(size=(12, 15))[::2, 1:6], rng.normal(size=(5, 8))[:, ::2]  # sliced


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "sliced"])
def test_add_matmul_accumulates_in_place(layout):
    rng = np.random.default_rng(15)
    a, b = matmul_operands(rng, layout)
    out = rng.normal(size=(6, 4))
    expected = out + a @ b
    assert add_matmul(out, a, b) is out
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_add_matmul_writes_into_a_row_block():
    rng = np.random.default_rng(16)
    base = rng.normal(size=(10, 4))
    out = base[2:8]  # a C-contiguous view: the sum must land in ``base``
    a, b = matmul_operands(rng, "contiguous")
    expected = out + a @ b
    add_matmul(out, a, b)
    np.testing.assert_allclose(base[2:8], expected, rtol=0, atol=1e-12)


def test_add_matmul_rejects_an_output_it_cannot_update():
    rng = np.random.default_rng(17)
    a, b = matmul_operands(rng, "contiguous")
    with pytest.raises(ValueError, match="C-contiguous"):
        add_matmul(np.zeros((4, 6)).T, a, b)
    with pytest.raises(ValueError, match="copied the float32 output"):
        add_matmul(np.zeros((6, 4), dtype=np.float32), a, b)
    with pytest.raises(ValueError, match="add_matmul"):
        add_matmul(np.zeros((6, 3)), a, b)


def test_add_matmul_of_no_rows_is_a_no_op():
    out = np.zeros((0, 4))
    assert add_matmul(out, np.zeros((0, 5)), np.ones((5, 4))) is out


def test_graph_conv_nan_pre_activation_gives_zero():
    rng = np.random.default_rng(13)
    layer = GraphConv(3, 2, rng)
    layer.bias.data[0] = np.nan
    batch = single_graph_batch(4, [(0, 1), (1, 2)], rng.normal(size=(4, 3)))
    x = Tensor(batch.features)
    out = layer.forward(x, batch.adjacency).data
    np.testing.assert_array_equal(out, unfused_conv(layer, x, batch.adjacency).data)
    np.testing.assert_array_equal(out[:, 0], 0.0)


def test_global_pool_singletons_identity():
    graphs = [Graph(1, [], np.array([[float(i), 1.0]]), 0) for i in range(3)]
    batch = GraphBatch(graphs)
    feats = Tensor(batch.features)
    for mode in ("mean", "add"):
        np.testing.assert_allclose(global_pool(batch, feats, mode).data, batch.features)


def test_global_pool_arithmetic():
    batch = single_graph_batch(2, [(0, 1)], [[1.0, 1.0], [3.0, 3.0]])
    feats = Tensor(batch.features)
    np.testing.assert_array_equal(global_pool(batch, feats, "mean").data, [[2.0, 2.0]])
    np.testing.assert_array_equal(global_pool(batch, feats, "add").data, [[4.0, 4.0]])


def test_add_pool_scales_with_node_count():
    sizes = [1, 3, 5]
    graphs = [Graph(n, [], np.ones((n, 2)), 0) for n in sizes]
    batch = GraphBatch(graphs)
    pooled = global_pool(batch, Tensor(batch.features), "add").data
    np.testing.assert_array_equal(pooled, np.array(sizes, dtype=float)[:, None] * np.ones(2))


def test_global_pool_rejects_unknown_mode():
    batch = single_graph_batch(2, [(0, 1)], np.ones((2, 1)))
    with pytest.raises(ValueError):
        global_pool(batch, Tensor(batch.features), "max")


def make_module(rng, dims=(5, 4), pooling="mean", input_dim=3):
    config = NodeLevelConfig(layer_dims=list(dims), pooling=pooling)
    return NodeLevelModule(config, input_dim, rng)


def random_graph(rng, n, d, p=0.4, label=0):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges, rng.normal(size=(n, d)), label)


def test_zero_final_layer_gives_zero_h():
    rng = np.random.default_rng(3)
    module = make_module(rng)
    module.layers[-1].w_self.data[:] = 0.0
    module.layers[-1].w_neigh.data[:] = 0.0
    module.layers[-1].bias.data[:] = 0.0
    batch = GraphBatch([random_graph(rng, 5, 3), random_graph(rng, 4, 3)])
    h = module.forward(batch)
    np.testing.assert_array_equal(h.data, np.zeros((2, 4)))


def permute_graph(g, perm):
    inv = {old: new for new, old in enumerate(perm)}
    edges = [(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in g.edges]
    feats = g.features[list(perm)]
    return Graph(g.node_count, sorted(edges), feats, g.label)


def test_node_permutation_invariance():
    rng = np.random.default_rng(4)
    module = make_module(rng, pooling="add")
    g = random_graph(rng, 7, 3)
    perm = list(rng.permutation(7))
    h1 = module.forward(GraphBatch([g])).data
    h2 = module.forward(GraphBatch([permute_graph(g, perm)])).data
    np.testing.assert_allclose(h1, h2, atol=1e-9)


def test_isomorphic_graphs_identical_rows():
    rng = np.random.default_rng(5)
    module = make_module(rng)
    g = random_graph(rng, 6, 3)
    twin = permute_graph(g, list(rng.permutation(6)))
    h = module.forward(GraphBatch([g, twin])).data
    np.testing.assert_allclose(h[0], h[1], atol=1e-10)


def test_batch_composition_invariance():
    rng = np.random.default_rng(6)
    module = make_module(rng)
    g = random_graph(rng, 6, 3)
    others = [random_graph(rng, n, 3) for n in (4, 8)]
    alone = module.forward(GraphBatch([g])).data[0]
    stacked = module.forward(GraphBatch([others[0], g, others[1]])).data[1]
    np.testing.assert_allclose(alone, stacked, atol=1e-12)


def test_f1_gradient_check():
    rng = np.random.default_rng(7)
    module = make_module(rng, dims=(4, 3), input_dim=2)
    batch = GraphBatch([random_graph(rng, 4, 2), random_graph(rng, 5, 2)])
    mix = Tensor(rng.normal(size=(2, 3)))
    for param in module.parameters():
        err = finite_difference_check(
            lambda _: (module.forward(batch) * mix).sum(), param
        )
        assert err < 1e-4, f"{param.name}: {err}"


def test_config_validation():
    with pytest.raises(ValueError):
        NodeLevelConfig(layer_dims=[])
    with pytest.raises(ValueError):
        NodeLevelConfig(layer_dims=[8], pooling="median")
