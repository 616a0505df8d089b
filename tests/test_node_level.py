import functools
import gc
import weakref

import numpy as np
import pytest

from popgraph import node_level
from popgraph.data import Graph, GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.node_level import NODE_BLOCK, NodeLevelConfig, NodeLevelModule, node_blocks
from popgraph import tensor as T
from popgraph.tensor import ShapeError, Tensor, finite_difference_check

from test_nn import dense_adjacency, single_graph_batch, unfused_conv


def dense_membership(batch):
    """The graphs x nodes 0/1 matrix whose row g is 1 on graph g's node rows."""
    return np.repeat(np.eye(len(batch)), np.diff(batch.node_offsets), axis=1)


def test_sparse_and_dense_adjacency_agree():
    """f1's blocked op over the sparse batch adjacency against GraphConv over
    the same adjacency made dense, pooled by a dense matrix."""
    rng = np.random.default_rng(8)
    module = make_module(rng, dims=(2,), pooling="add")
    layer = module.layers[0]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (2, 2)]
    batch = GraphBatch([Graph(edges, rng.normal(size=(4, 3)), 0),
                        Graph([(0, 2)], rng.normal(size=(3, 3)), 1)])
    mix = Tensor(rng.normal(size=(2, 2)))
    results = []
    for forward in (module.forward,
                    lambda b: T.matmul(Tensor(dense_membership(b)),
                                       layer.forward(Tensor(b.features),
                                                     Tensor(b.adjacency.toarray())))):
        h = forward(batch)
        (h * mix).sum().backward()
        results.append([h.data] + [p.grad for p in module.parameters()])
    for sparse, dense in zip(*results):
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


def identity_module(width, pooling):
    """One f1 layer that passes non-negative features through: relu(x I)."""
    module = make_module(np.random.default_rng(0), dims=(width,), pooling=pooling, input_dim=width)
    layer = module.layers[0]
    layer.w_self.data = np.eye(width)
    layer.w_neigh.data[:] = 0.0
    layer.bias.data[:] = 0.0
    return module


def test_global_pool_singletons_identity():
    graphs = [Graph([], np.array([[float(i), 1.0]]), 0) for i in range(3)]
    batch = GraphBatch(graphs)
    for mode in ("mean", "add"):
        h = identity_module(2, mode).forward(batch)
        np.testing.assert_allclose(h.data, batch.features)


def test_global_pool_arithmetic():
    batch = single_graph_batch([(0, 1)], [[1.0, 1.0], [3.0, 3.0]])
    np.testing.assert_array_equal(identity_module(2, "mean").forward(batch).data, [[2.0, 2.0]])
    np.testing.assert_array_equal(identity_module(2, "add").forward(batch).data, [[4.0, 4.0]])


def test_add_pool_scales_with_node_count():
    sizes = [1, 3, 5]
    graphs = [Graph([], np.ones((n, 2)), 0) for n in sizes]
    batch = GraphBatch(graphs)
    pooled = identity_module(2, "add").forward(batch).data
    np.testing.assert_array_equal(pooled, np.array(sizes, dtype=float)[:, None] * np.ones(2))


def test_global_pool_rejects_unknown_mode():
    with pytest.raises(ValueError, match="pooling must be one of"):
        NodeLevelConfig(layer_dims=[2], pooling="max")


def make_module(rng, dims=(5, 4), pooling="mean", input_dim=3):
    config = NodeLevelConfig(layer_dims=list(dims), pooling=pooling)
    return NodeLevelModule(config, input_dim, rng)


def random_graph(rng, n, d, p=0.4, label=0):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(edges, rng.normal(size=(n, d)), label)


def test_zero_final_layer_gives_zero_h():
    rng = np.random.default_rng(3)
    module = make_module(rng)
    module.layers[-1].w_self.data[:] = 0.0
    module.layers[-1].w_neigh.data[:] = 0.0
    module.layers[-1].bias.data[:] = 0.0
    batch = GraphBatch([random_graph(rng, 5, 3), random_graph(rng, 4, 3)])
    h = module.forward(batch)
    np.testing.assert_array_equal(h.data, np.zeros((2, 4)))


def sparse_graph(rng, n, d, label=0):
    """A ring of n nodes plus n // 2 random chords and one self-loop, built
    without an n x n loop, so graphs past NODE_BLOCK nodes stay cheap."""
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = rng.integers(0, n, size=(n // 2, 2))
    edges = np.concatenate([ring, chords, [[0, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    return Graph(edges, rng.normal(size=(n, d)), label)


def permute_graph(g, perm):
    inv = {old: new for new, old in enumerate(perm)}
    edges = [(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in g.edges]
    feats = g.features[list(perm)]
    return Graph(sorted(edges), feats, g.label)


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
    """A graph's row of h does not depend on the graphs batched with it, in
    its own block of the batch's block plan or in a later one."""
    rng = np.random.default_rng(6)
    module = make_module(rng)
    g = random_graph(rng, 6, 3)
    others = [random_graph(rng, n, 3) for n in (4, 8)]
    alone = module.forward(GraphBatch([g])).data[0]
    stacked = module.forward(GraphBatch([others[0], g, others[1]])).data[1]
    np.testing.assert_allclose(alone, stacked, atol=1e-12)
    big = [sparse_graph(rng, n, 3) for n in (NODE_BLOCK - 3, NODE_BLOCK + 5)]
    batch = GraphBatch(big + [others[0], g])
    assert [b.graphs for b in node_blocks(batch)] == [slice(0, 1), slice(1, 2), slice(2, 4)]
    np.testing.assert_allclose(alone, module.forward(batch).data[3], atol=1e-12)


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


@pytest.mark.parametrize("dims,entry", [([0], r"layer_dims\[0\]=0 is below 1"),
                                        ([4, 0], r"layer_dims\[1\]=0 is below 1"),
                                        ([2.5], r"layer_dims\[0\]=2.5 is not an integer"),
                                        ([4, -1], r"layer_dims\[1\]=-1 is below 1"),
                                        ([True], r"layer_dims\[0\]=True is not an integer")])
def test_config_rejects_a_width_that_is_not_a_positive_integer(dims, entry):
    with pytest.raises(ValueError, match=entry):
        NodeLevelConfig(layer_dims=dims)


@pytest.mark.parametrize("input_dim", [0, 2.5, True, -3])
def test_f1_rejects_an_input_width_that_is_not_a_positive_integer(input_dim):
    with pytest.raises(ValueError, match=rf"f1.conv0 dims\[0\]={input_dim!r} is "):
        make_module(np.random.default_rng(0), input_dim=input_dim)
    module = make_module(np.random.default_rng(0), input_dim=np.int64(3))
    assert module.layers[0].w_self.shape == (3, 5)


def test_config_accepts_numpy_integer_widths():
    assert NodeLevelConfig(layer_dims=list(np.array([4, 2]))).layer_dims == [4, 2]
    config = NodeLevelConfig(layer_dims=np.array([2, 3]))
    module = NodeLevelModule(config, 3, np.random.default_rng(0))
    assert [layer.w_self.shape for layer in module.layers] == [(3, 2), (2, 3)]
    with pytest.raises(ValueError, match=r"layer_dims=array\(\[\].* of 1 or more widths"):
        NodeLevelConfig(layer_dims=np.array([], dtype=int))


def test_f1_rejects_features_of_another_width():
    rng = np.random.default_rng(9)
    module = make_module(rng, input_dim=3)
    batch = GraphBatch([random_graph(rng, 4, 2)])
    with pytest.raises(ShapeError, match="width 2 for input width 3"):
        module.forward(batch)


def blocked_batch(rng, d):
    """A batch whose block plan has four blocks: two graphs, one graph of more
    than NODE_BLOCK nodes on its own, two graphs, and a ragged last block."""
    half, third = NODE_BLOCK // 2 - 100, NODE_BLOCK // 3
    sizes = [half, half, NODE_BLOCK + 52, third, third + 200, third + 40, 300]
    batch = GraphBatch([sparse_graph(rng, n, d, label=i % 2) for i, n in enumerate(sizes)])
    blocks = node_blocks(batch)
    assert [b.graphs for b in blocks] == [slice(0, 2), slice(2, 3), slice(3, 5), slice(5, 7)]
    assert blocks[1].rows.stop - blocks[1].rows.start > NODE_BLOCK
    assert blocks[-1].rows.stop - blocks[-1].rows.start < NODE_BLOCK
    return batch


def unfused_f1(module, batch):
    """The chain of generic ops f1's blocked op replaces, graph by graph over
    each graph's dense adjacency and dense pooling row: the oracle. Returns
    one (1, width) row per graph."""
    h = []
    for g in range(len(batch)):
        graph = batch[g]
        x = Tensor(graph.features)
        adj = Tensor(dense_adjacency(graph.node_count, graph.edges))
        for layer in module.layers:
            x = unfused_conv(layer, x, adj)
        pool = np.ones((1, graph.node_count))
        if module.config.pooling == "mean":
            pool /= graph.node_count
        h.append(T.matmul(Tensor(pool), x))
    return h


def blocked_and_unfused(module, batch, mix):
    """[h, then every parameter's gradient] of the loss sum(h * mix), from
    f1's blocked op and from :func:`unfused_f1`."""
    h = module.forward(batch)
    (h * Tensor(mix)).sum().backward()
    results = [[h.data] + [p.grad for p in module.parameters()]]
    rows = unfused_f1(module, batch)  # the loss summed over graphs
    functools.reduce(T.add, ((row * Tensor(mix[g:g + 1])).sum() for g, row in enumerate(rows))
                     ).backward()
    results.append([np.concatenate([row.data for row in rows])]
                   + [p.grad for p in module.parameters()])
    return results


@pytest.fixture(scope="module")
def block_batch():
    return blocked_batch(np.random.default_rng(21), 3)


def sparse_layer_outputs(module, batch):
    """Each f1 layer's node rows over the whole batch's sparse adjacency."""
    x, outputs = batch.features, []
    for layer in module.layers:
        x = np.maximum(x @ layer.w_self.data + batch.adjacency @ x @ layer.w_neigh.data
                       + layer.bias.data, 0.0)
        outputs.append(x)
    return outputs


# Two layers, and three of unequal widths: A g then runs on d_out != d_in
# columns, the middle layer's relu sign is read from the next layer's input,
# and the top layer's from the mask the forward keeps.
F1_CASES = [pytest.param(pooling, dims, id=pooling + suffix)
            for dims, suffix in (((5, 4), ""), ((5, 3, 4), "-5-3-4"))
            for pooling in ("mean", "add")]


@pytest.mark.parametrize("pooling,dims", F1_CASES)
def test_f1_matches_unfused_chain_across_blocks(block_batch, pooling, dims):
    batch = block_batch
    module = make_module(np.random.default_rng(22), dims=dims, pooling=pooling)
    mix = np.random.default_rng(23).normal(size=(len(batch), dims[-1]))
    results = blocked_and_unfused(module, batch, mix)
    for y in sparse_layer_outputs(module, batch):
        assert 0 < np.count_nonzero(y) < y.size  # every layer's relu masks some entries
    for blocked, chain in zip(*results):
        np.testing.assert_allclose(blocked, chain, rtol=1e-12, atol=1e-12)
    assert all(p._backward is None for p in module.forward(batch)._parents)  # one tape entry


@pytest.mark.parametrize("pooling,dims", F1_CASES)
def test_f1_gradient_check_across_blocks(block_batch, pooling, dims):
    batch = block_batch
    module = make_module(np.random.default_rng(24), dims=dims, pooling=pooling)
    mix = Tensor(np.random.default_rng(25).normal(size=(len(batch), dims[-1])))
    # over ~7,000 nodes, a step of 1e-5 moves some pre-activations across
    # relu's kink at 0 (relative errors up to 4e-3); 1e-6 moves none here
    for param in module.parameters():
        err = finite_difference_check(lambda _: (module.forward(batch) * mix).sum(), param,
                                      step=1e-6)
        assert err < 1e-6, f"{param.name}: {err}"


def test_f1_forward_keeps_only_layer_inputs_and_the_top_relu_sign(block_batch, traced):
    """f1's op keeps, from forward to backward, each layer's input rows past
    the batch's own features (8 bytes an entry), the last layer's relu sign
    (1 byte an entry) and h: not each layer's neighbour sums or its output."""
    batch = block_batch
    dims = (32, 32)
    module = make_module(np.random.default_rng(26), dims=dims)
    module.forward(batch)  # builds the batch's block plan, which outlives the op
    nodes = batch.total_nodes
    bound = (sum(8 * nodes * d for d in dims[:-1]) + nodes * dims[-1]
             + 8 * len(batch) * dims[-1] + 64 * 1024)
    h, _, retained = traced(module.forward, batch)
    assert h.shape == (len(batch), dims[-1])
    assert retained < bound, f"{retained} bytes kept, bound {bound}"


def test_f1_nan_pre_activation_gives_zero():
    # the blocked op's relu maps NaN to 0, as GraphConv's and tensor.relu do
    rng = np.random.default_rng(13)
    module = make_module(rng, dims=(2,), pooling="add")
    module.layers[0].bias.data[0] = np.nan
    batch = GraphBatch([random_graph(rng, 4, 3), random_graph(rng, 3, 3)])
    h = module.forward(batch).data
    oracle = np.concatenate([row.data for row in unfused_f1(module, batch)])
    np.testing.assert_allclose(h, oracle, rtol=1e-12, atol=0.0)  # the oracle sums in another order
    np.testing.assert_array_equal(h[:, 0], 0.0)


def test_f1_nan_pre_activation_in_a_lower_layer_gives_zero():
    # the lower layer's relu sign is read from the next layer's input, where
    # its NaN pre-activations are already 0
    rng = np.random.default_rng(14)
    module = make_module(rng, dims=(3, 2), pooling="add")
    module.layers[0].bias.data[0] = np.nan
    batch = GraphBatch([random_graph(rng, 4, 3), random_graph(rng, 5, 3)])
    results = blocked_and_unfused(module, batch, rng.normal(size=(len(batch), 2)))
    assert all(np.isfinite(grad).all() for grad in results[0][1:])
    assert results[0][3][0] == 0.0  # the NaN bias entry gets no gradient
    for blocked, chain in zip(*results):
        np.testing.assert_allclose(blocked, chain, rtol=1e-12, atol=1e-12)


def test_block_plan_splits_the_batch_into_whole_graphs(monkeypatch):
    monkeypatch.setattr(node_level, "NODE_BLOCK", 10)
    rng = np.random.default_rng(12)
    sizes = [3, 4, 2, 15, 9, 1, 10, 4, 5]
    graphs = [Graph([(i, (i + 1) % n) for i in range(n - 1)] + [(0, 0)],
                    rng.normal(size=(n, 2)), 0) for n in sizes]
    batch = GraphBatch(graphs)
    blocks = node_blocks(batch)
    assert [b.graphs for b in blocks] == [slice(0, 3), slice(3, 4), slice(4, 6), slice(6, 7),
                                          slice(7, 9)]
    adjacency = batch.adjacency.toarray()
    graph_of_node = np.repeat(np.arange(len(sizes)), sizes)
    membership = (np.arange(len(sizes))[:, None] == graph_of_node).astype(float)
    for b in blocks:
        rows, graphs_ = b.rows, b.graphs
        assert (rows.start, rows.stop) == (batch.node_offsets[graphs_.start],
                                           batch.node_offsets[graphs_.stop])
        assert rows.stop - rows.start <= 10 or graphs_.stop - graphs_.start == 1
        np.testing.assert_array_equal(b.adjacency.toarray(), adjacency[rows, rows])
        assert not adjacency[rows][:, np.r_[:rows.start, rows.stop:batch.total_nodes]].any()
        np.testing.assert_array_equal(b.membership.toarray(), membership[graphs_, rows])
    assert blocks[0].rows.start == 0 and blocks[-1].rows.stop == batch.total_nodes
    assert all(a.rows.stop == b.rows.start for a, b in zip(blocks, blocks[1:]))
    assert node_blocks(batch) is blocks  # built once per batch


def test_block_aggregated_features_are_a_read_only_product(monkeypatch):
    monkeypatch.setattr(node_level, "NODE_BLOCK", 16)
    spec = SyntheticSpec(
        classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
        topology="ambiguous_features", feature_dim=3, noise_sigma=0.3, seed=4,
    )
    batch = make_synthetic_dataset(spec)
    blocks = node_blocks(batch)
    assert len(blocks) > 1
    whole = batch.adjacency @ batch.features
    for block in blocks:
        np.testing.assert_array_equal(block.aggregated, whole[block.rows])
        assert not block.aggregated.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block.aggregated[0, 0] = 1.0


def test_block_plan_is_freed_with_its_batch():
    rng = np.random.default_rng(15)
    module = make_module(rng)
    batch = GraphBatch([random_graph(rng, 5, 3), random_graph(rng, 4, 3)])
    gc.collect()
    gc.disable()
    try:
        cached = len(node_level._plans)
        h = module.forward(batch)
        (h * Tensor(np.ones(h.shape))).sum().backward()
        assert len(node_level._plans) == cached + 1
        freed = weakref.ref(batch)
        del batch, h
        assert freed() is None
        assert len(node_level._plans) == cached
    finally:
        gc.enable()
