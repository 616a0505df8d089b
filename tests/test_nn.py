import gc
import re
import sys
import weakref

import numpy as np
import pytest

from popgraph import nn
from popgraph import tensor as T
from popgraph.classifier import ClassifierConfig
from popgraph.data import Graph, GraphBatch
from popgraph.latent_graph import LatentGraphParams
from popgraph.nn import MLP, GraphConv, conv_forward
from popgraph.node_level import NodeLevelConfig
from popgraph.tensor import ShapeError, Tensor, finite_difference_check


def single_graph_batch(edges, features, label=0):
    return GraphBatch([Graph(edges=edges, features=np.asarray(features, dtype=float), label=label)])


def dense_adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def conv(layer, batch):
    return layer.forward(Tensor(batch.features), Tensor(batch.adjacency.toarray()))


def unfused_conv(layer, x, adj):
    """The chain of generic ops the fused layer replaces: the oracle."""
    return T.relu(x @ layer.w_self + T.matmul(adj, x @ layer.w_neigh) + layer.bias)


def test_edgeless_graph_only_self_term():
    rng = np.random.default_rng(0)
    layer = GraphConv(3, 2, rng)
    batch = single_graph_batch([], rng.normal(size=(4, 3)))
    out = conv(layer, batch)
    expected = np.maximum(batch.features @ layer.w_self.data + layer.bias.data, 0.0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_two_node_identity_hand_sum():
    rng = np.random.default_rng(0)
    layer = GraphConv(1, 1, rng)
    layer.w_self.data = np.eye(1)
    layer.w_neigh.data = np.eye(1)
    layer.bias.data = np.zeros(1)
    batch = single_graph_batch([(0, 1)], [[1.0], [2.0]])
    out = conv(layer, batch)
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])


def test_graph_conv_matches_dense_oracle():
    rng = np.random.default_rng(1)
    layer = GraphConv(4, 3, rng)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]
    batch = single_graph_batch(edges, rng.normal(size=(5, 4)))
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
    layer = GraphConv(2, 2, np.random.default_rng(2))
    with pytest.raises(ShapeError, match=r"\(3, 3\) for 5 node rows"):
        layer.forward(Tensor(np.zeros((5, 2))), Tensor(np.zeros((3, 3))))
    with pytest.raises(ShapeError, match=r"\(4, 5\) for 4 node rows"):
        layer.forward(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match=r"node rows of shape \(4, 3\) for input width 2"):
        layer.forward(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 4))))
    with pytest.raises(ShapeError, match=r"node rows of shape \(\) for input width 2"):
        layer.forward(Tensor(0.0), Tensor(np.zeros((4, 4))))


def test_graph_conv_rejects_a_sparse_adjacency():
    rng = np.random.default_rng(2)
    layer = GraphConv(2, 2, rng)
    batch = single_graph_batch([(0, 1)], np.zeros((3, 2)))
    with pytest.raises(TypeError, match="^adj must be a Tensor, not csr_matrix$"):
        layer.forward(Tensor(batch.features), batch.adjacency)


def test_graph_conv_nan_pre_activation_gives_zero():
    rng = np.random.default_rng(13)
    layer = GraphConv(3, 2, rng)
    layer.bias.data[0] = np.nan
    batch = single_graph_batch([(0, 1), (1, 2)], rng.normal(size=(4, 3)))
    x, adj = Tensor(batch.features), Tensor(batch.adjacency.toarray())
    out = layer.forward(x, adj).data
    np.testing.assert_array_equal(out, unfused_conv(layer, x, adj).data)
    np.testing.assert_array_equal(out[:, 0], 0.0)


def conv_inputs(rng, n, d_in, x_leaf, adj_kind):
    """(x, dense adjacency, gradient inputs) for one of the layer's input kinds."""
    edges = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 3.0 / n]
    adj = single_graph_batch(edges, np.zeros((n, 1))).adjacency
    adj = Tensor(adj.toarray() * rng.random((n, n)), requires_grad=adj_kind == "dense_leaf")
    x = Tensor(rng.normal(size=(n, d_in)), requires_grad=x_leaf)
    inputs = [x] if x_leaf else []
    return x, adj, inputs + ([adj] if adj_kind == "dense_leaf" else [])


def conv_results(forward, x, adj, mix, tensors):
    """The output of ``forward(x, adj)`` and, after a backward through it,
    the gradients of ``tensors``."""
    out = forward(x, adj)
    (out * mix).sum().backward()
    return [out.data] + [t.grad for t in tensors]


CONV_INPUT_KINDS = [(x_leaf, adj_kind) for x_leaf in (False, True)
                    for adj_kind in ("dense_constant", "dense_leaf")]


@pytest.mark.parametrize("x_leaf,adj_kind", CONV_INPUT_KINDS)
def test_graph_conv_gradient_check_every_input(x_leaf, adj_kind):
    rng = np.random.default_rng(11)
    layer = GraphConv(3, 4, rng)
    x, adj, inputs = conv_inputs(rng, 6, 3, x_leaf, adj_kind)
    mix = Tensor(rng.normal(size=(6, 4)))
    for t in layer.parameters() + inputs:
        err = finite_difference_check(lambda _: (layer.forward(x, adj) * mix).sum(), t)
        assert err < 1e-6, f"{t}: {err}"


@pytest.mark.parametrize("x_leaf,adj_kind", CONV_INPUT_KINDS)
def test_graph_conv_matches_unfused_chain(x_leaf, adj_kind):
    rng = np.random.default_rng(12)
    layer = GraphConv(8, 32, rng)
    x, adj, inputs = conv_inputs(rng, 320, 8, x_leaf, adj_kind)
    mix = Tensor(rng.normal(size=(320, 32)))
    results = [conv_results(forward, x, adj, mix, layer.parameters() + inputs)
               for forward in (layer.forward, lambda x, adj: unfused_conv(layer, x, adj))]
    assert 0 < np.count_nonzero(results[0][0]) < results[0][0].size
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-12)
    assert all(p._backward is None for p in layer.forward(x, adj)._parents)  # one tape entry
    assert (adj in nn._csr_copies) == (adj_kind == "dense_constant")  # the branch taken


@pytest.mark.parametrize("worker", [False, True], ids=["caller_only", "worker"])
@pytest.mark.parametrize("adj_leaf", [False, True], ids=["constant", "leaf"])
def test_dense_route_on_the_lanes_gives_the_whole_products_bit_for_bit(monkeypatch, worker,
                                                                       adj_leaf):
    monkeypatch.setattr(nn, "LANE_WORKER", worker)
    rng = np.random.default_rng(21)
    n, d_in, d_out = 2 * nn.ROW_BLOCK + 5, 8, 16  # three row blocks, the last one ragged
    layer = GraphConv(d_in, d_out, rng)
    a = rng.random((n, n))  # dense and asymmetric: A^T g_ax is not A g_ax
    x = Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
    adj = Tensor(a, requires_grad=adj_leaf)
    mix = rng.normal(size=(n, d_out))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two lanes' Python code then interleaves finely
    try:
        out = layer.forward(x, adj)
        (out * Tensor(mix)).sum().backward()
    finally:
        sys.setswitchinterval(interval)
    assert nn._csr_copies.get(adj, (a, None))[1] is None  # the dense route
    w_self, w_neigh, bias = (p.data for p in layer.parameters())
    np.testing.assert_array_equal(out.data, conv_forward(x.data, a @ x.data, w_self, w_neigh, bias))
    g = mix * (out.data > 0.0).astype(np.float64)
    g_ax = g @ w_neigh.T
    np.testing.assert_array_equal(x.grad, (g_ax.T @ a).T + g @ w_self.T)


def test_constant_adjacency_given_another_array_is_aggregated_over_it():
    rng = np.random.default_rng(16)
    layer = GraphConv(3, 4, rng)
    x, adj, _ = conv_inputs(rng, 40, 3, True, "dense_constant")
    mix = Tensor(rng.normal(size=(40, 4)))
    layer.forward(x, adj)
    adj.data = adj.data.T * rng.random((40, 40))  # other nonzeros, other weights
    tensors = layer.parameters() + [x]
    fused = conv_results(layer.forward, x, adj, mix, tensors)
    chain = conv_results(lambda x, adj: unfused_conv(layer, x, adj), x, adj, mix, tensors)
    for a, b in zip(fused, chain):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_constant_adjacency_is_read_only_once_used_and_a_leaf_stays_writable():
    rng = np.random.default_rng(17)
    layer = GraphConv(3, 4, rng)
    for adj_kind in ("dense_constant", "dense_leaf"):
        x, adj, _ = conv_inputs(rng, 40, 3, True, adj_kind)  # under 10% nonzeros: CSR
        (layer.forward(x, adj) * Tensor(rng.normal(size=(40, 4)))).sum().backward()
        if adj_kind == "dense_leaf":
            adj.data[0, 1] += 1.0
        else:
            with pytest.raises(ValueError, match="read-only"):
                adj.data[0, 1] += 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_constant_csr_keeps_a_non_finite_entry(value):
    a = np.zeros((4, 4))  # one nonzero in 16: under CSR_MAX_DENSITY
    a[0, 2] = value
    csr = nn.constant_csr(Tensor(a))
    assert csr.nnz == 1
    np.testing.assert_array_equal(csr.toarray(), a)


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_constant_adjacency_takes_the_csr_route_below_the_crossover_only(side):
    rng = np.random.default_rng(19)
    n = 20
    crossover = int(np.ceil(nn.CSR_MAX_DENSITY * n * n))  # the fewest nonzeros kept dense
    nonzeros = crossover - 1 if side == "below" else crossover + 1
    a = np.zeros(n * n)
    a[rng.choice(n * n, nonzeros, replace=False)] = rng.random(nonzeros) + 0.5
    adj = Tensor(a.reshape(n, n))
    layer = GraphConv(3, 4, rng)
    x = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
    mix = Tensor(rng.normal(size=(n, 4)))
    tensors = layer.parameters() + [x]
    fused = conv_results(layer.forward, x, adj, mix, tensors)
    chain = conv_results(lambda x, adj: unfused_conv(layer, x, adj), x, adj, mix, tensors)
    for got, expected in zip(fused, chain):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    sparse = side == "below"
    assert (nn.constant_csr(adj) is not None) == sparse
    assert adj.data.flags.writeable != sparse  # only an array with a copy is read-only


def test_constant_csr_is_freed_with_its_adjacency():
    rng = np.random.default_rng(18)
    layer = GraphConv(3, 4, rng)
    x, adj, _ = conv_inputs(rng, 8, 3, True, "dense_constant")
    gc.collect()
    gc.disable()
    try:
        cached = len(nn._csr_copies)
        out = layer.forward(x, adj)
        (out * Tensor(rng.normal(size=(8, 4)))).sum().backward()
        assert len(nn._csr_copies) == cached + 1
        freed = weakref.ref(adj)
        del adj, out
        assert freed() is None
        assert len(nn._csr_copies) == cached
    finally:
        gc.enable()


def matmul_operands(rng, layout):
    """(a, b) of shapes (6, 5) and (5, 4), laid out as ``layout`` says."""
    if layout == "contiguous":
        return rng.normal(size=(6, 5)), rng.normal(size=(5, 4))
    if layout == "transposed":  # Fortran-ordered views, as W.T in the backward
        return rng.normal(size=(5, 6)).T, rng.normal(size=(4, 5)).T
    return rng.normal(size=(12, 15))[::2, 1:6], rng.normal(size=(5, 8))[:, ::2]  # sliced


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "sliced"])
def test_conv_forward_sums_both_projections_and_the_bias(layout):
    rng = np.random.default_rng(15)
    x, w_self = matmul_operands(rng, layout)
    ax, w_neigh = matmul_operands(rng, layout)
    bias = rng.normal(size=4)
    y = conv_forward(x, ax, w_self, w_neigh, bias)
    np.testing.assert_array_equal(y, np.maximum((x @ w_self + bias) + ax @ w_neigh, 0.0))


def test_conv_forward_of_no_rows_has_no_rows():
    y = conv_forward(np.zeros((0, 5)), np.zeros((0, 5)), np.ones((5, 4)), np.ones((5, 4)),
                     np.ones(4))
    assert y.shape == (0, 4)


@pytest.mark.parametrize("dims,entry", [([4, 0, 2], r"g dims\[1\]=0 is below 1"),
                                        ([3.0, 2], r"g dims\[0\]=3.0 is not an integer"),
                                        ([4, True], r"g dims\[1\]=True is not an integer"),
                                        ([4, -1], r"g dims\[1\]=-1 is below 1")],
                         ids=["zero", "float", "bool", "negative"])
def test_mlp_rejects_a_width_that_is_not_a_positive_integer(dims, entry):
    with pytest.raises(ValueError, match=entry):
        LatentGraphParams(dims, np.random.default_rng(0))
    with pytest.raises(ValueError, match="MLP dims"):
        MLP(dims, np.random.default_rng(0))


@pytest.mark.parametrize("dims", [[], [4]])
def test_mlp_rejects_fewer_than_two_dims(dims):
    with pytest.raises(ValueError, match=r"MLP dims=\[.*\] is not .* of 2 or more widths"):
        MLP(dims, np.random.default_rng(0))


# Every layer or config declared by widths: (a builder from a width list, the
# field its errors name, a valid list of the fewest widths it takes, the
# malformed cases that do not apply). GraphConv's list is its (d_in, d_out)
# pair, so a bare int or a shorter list is not a call it can be given; with no
# gnn_dims the classifier is its head alone, so no gnn_dims list is too short.
WIDTH_DECLARATIONS = {
    "MLP": (lambda dims: MLP(dims, np.random.default_rng(0)), "MLP dims", [3, 3], ()),
    "GraphConv": (lambda dims: GraphConv(*dims, np.random.default_rng(0)), "conv dims", [3, 3],
                  ("bare_int", "too_short")),
    "LatentGraphParams": (lambda dims: LatentGraphParams(dims, np.random.default_rng(0)),
                          "g dims", [3, 3], ()),
    "NodeLevelConfig.layer_dims": (lambda dims: NodeLevelConfig(layer_dims=dims),
                                   "layer_dims", [3], ()),
    "ClassifierConfig.gnn_dims": (lambda dims: ClassifierConfig(gnn_dims=dims, head_dims=[2]),
                                  "gnn_dims", [3], ("too_short",)),
    "ClassifierConfig.head_dims": (lambda dims: ClassifierConfig(gnn_dims=[4], head_dims=dims),
                                   "head_dims", [3], ()),
}

# Each malformed width list, made from a valid list ``ok``.
MALFORMED_WIDTHS = {
    "bare_int": lambda ok: 3,
    "string": lambda ok: "33",
    "2d_array": lambda ok: np.array([ok, ok]),
    "ragged": lambda ok: [ok, ok[:-1]],
    "too_short": lambda ok: ok[:-1],
    "zero": lambda ok: ok[:-1] + [0],
    "true": lambda ok: ok[:-1] + [True],
}


@pytest.mark.parametrize("build,field,widths", [
    pytest.param(build, field, make(ok), id=f"{target}-{case}")
    for target, (build, field, ok, inapplicable) in WIDTH_DECLARATIONS.items()
    for case, make in MALFORMED_WIDTHS.items() if case not in inapplicable])
def test_every_width_declaration_rejects_a_malformed_list_naming_its_field(build, field, widths):
    with pytest.raises(ValueError, match="^" + re.escape(field)):
        build(widths)


@pytest.mark.parametrize("layer,names", [(nn.Linear, ("weight", "bias")),
                                         (GraphConv, ("w_self", "w_neigh", "bias"))])
@pytest.mark.parametrize("seed", [0, 11])
def test_layers_draw_their_parameters_in_order_from_the_generator(layer, names, seed):
    """A model's parameters are a function of its seed: each layer draws
    every array from ``rng`` in a fixed order, U(+-1/sqrt(d_in)), and no more."""
    d_in, d_out = 3, 4
    rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    built = layer(d_in, d_out, rng, name="l")
    bound = 1.0 / np.sqrt(d_in)
    for name, param in zip(names, built.parameters(), strict=True):
        expected = fresh.uniform(-bound, bound, size=param.shape)
        assert param.name == f"l.{name}" and param.requires_grad
        assert param.shape == ((d_out,) if name == "bias" else (d_in, d_out))
        np.testing.assert_array_equal(param.data, expected)
    assert rng.random() == fresh.random()
