import gc
import weakref
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from popgraph import tensor as T
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.data import GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.degree_loss import TargetDistribution, degree_loss, total_loss
from popgraph.latent_graph import LatentGraphParams, logistic_edge_weights, pairwise_distances
from popgraph.node_level import NodeLevelConfig, NodeLevelModule
from popgraph.tensor import ShapeError, Tape, Tensor, finite_difference_check


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = a @ Tensor(np.eye(2))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_sigmoid_midpoint():
    # zero distance and theta = 0: the edge weight is sigmoid(0)
    a = logistic_edge_weights(Tensor(np.zeros((2, 3))), Tensor(0.0), Tensor(0.0))
    assert a.data[0, 1] == 0.5


def test_pairwise_euclidean_345():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)


def test_backward_sigmoid_grad_quarter():
    theta = Tensor(0.0, requires_grad=True)
    a = logistic_edge_weights(Tensor(np.zeros((2, 3))), Tensor(0.0), theta)
    loss = (a * Tensor([[0.0, 1.0], [0.0, 0.0]])).sum()  # the one weight a_01
    loss.backward()
    np.testing.assert_allclose(theta.grad, 0.25, rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * x).backward()


def test_gradient_accumulates_across_fanout():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    loss = (y + y).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [6.0, 6.0])


def test_backward_reinitializes_grads():
    x = Tensor([2.0], requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        a + b
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        a @ b
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        T.matmul(sp.csr_matrix(a.data), b)


def test_log_rejects_nan():
    with pytest.raises(ValueError, match="log"):
        T.log(Tensor([1.0, np.nan]))


def test_broadcasting_add_and_unbroadcast_grad():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 2)), requires_grad=True)
    ((a + b) * 2.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((3, 2), 2.0))
    np.testing.assert_allclose(b.grad, np.full((1, 2), 6.0))


def test_constants_stay_off_the_tape():
    a = Tensor([1.0, 2.0])
    out = a * 2.0 + Tensor([1.0, 1.0])
    assert not out.requires_grad
    assert out._backward is None


def test_tape_topological_order_and_unique_visits():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    z = y + y
    loss = (z * y).sum()
    tape = Tape.trace(loss)
    ids = [id(t) for t in tape.entries]
    assert len(ids) == len(set(ids))
    pos = {id(t): i for i, t in enumerate(tape.entries)}
    for node in tape.entries:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def _training_step(graphs_per_class):
    """Forward half of an f1 -> f2 -> f3 + NDDL step: returns a function that
    builds (loss, a_p, h) from fixed parameters."""
    spec = SyntheticSpec(classes=2, graphs_per_class=graphs_per_class, nodes_min=3,
                         nodes_max=5, topology="ambiguous_features", feature_dim=2,
                         noise_sigma=0.5)
    batch = GraphBatch(make_synthetic_dataset(spec))
    rng = np.random.default_rng(0)
    f1 = NodeLevelModule(NodeLevelConfig(layer_dims=[4]), 2, rng)
    f2 = LatentGraphParams([4, 3], rng)
    f3 = PopulationClassifier(ClassifierConfig(gnn_dims=[4], head_dims=[2]), 4, rng)
    target = TargetDistribution.for_support(len(batch))

    def forward():
        h = f1.forward(batch)
        a = f2.forward(h).a_p
        _, logits = f3.forward(h, a)
        kl, _ = degree_loss(a, target)
        return total_loss(cross_entropy(logits, batch.labels), kl, 1.0), a, h

    return forward


def test_step_tape_is_freed_without_cycle_collector():
    forward = _training_step(graphs_per_class=3)

    def step():
        loss, a, h = forward()
        loss.backward()
        return loss, a, weakref.ref(h)

    gc.collect()
    gc.disable()
    try:
        loss, a, intermediate = step()
        assert intermediate() is not None
        del loss, a
        assert intermediate() is None
    finally:
        gc.enable()


def test_step_tape_holds_one_population_matrix_and_only_leaf_grads():
    loss, a, _ = _training_step(graphs_per_class=32)()
    n = a.shape[0]
    tape = Tape.trace(loss)
    square = [t for t in tape.entries if t.shape == (n, n)]
    assert len(square) == 1 and square[0] is a
    loss.backward()
    assert [t for t in tape.entries if t._backward is not None and t.grad is not None] == []
    leaves = [t for t in tape.entries if t._backward is None and t.requires_grad]
    assert leaves and all(t.grad is not None and t.grad.shape == t.shape for t in leaves)


def test_leaf_gradients_own_their_memory():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    (a + b).sum().backward()  # add hands one gradient array to both operands
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_leaf_without_accumulation_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T._record(x.data * 2.0, (x,), lambda g: None)  # a rule that accumulates nothing
    (y * y).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])
    assert y.grad is None


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)))
    y = T.softmax(x, axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)
    shifted = T.softmax(Tensor(x.data + 3.7), axis=1)
    np.testing.assert_allclose(shifted.data, y.data, atol=1e-12)


def test_pairwise_symmetric_zero_diagonal():
    rng = np.random.default_rng(1)
    for n in (6, 300):  # 300 rows span several BLAS blocks
        d = pairwise_distances(rng.normal(size=(n, 16)))
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(n))


def test_pairwise_zero_distance_has_finite_gradient():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    t_raw = Tensor(0.0, requires_grad=True)
    logistic_edge_weights(x, t_raw, Tensor(1.0)).sum().backward()
    np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))
    assert t_raw.grad == 0.0


def test_stop_gradient_blocks_flow():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    loss = (Tensor(y.data) * y).sum()
    loss.backward()
    # a tensor rebuilt from y's values is a constant: d/dx (c * 3x) = 3c
    np.testing.assert_allclose(x.grad, 3.0 * y.data)


def test_greater_mask_is_constant():
    x = Tensor([0.2, 0.5, 0.9], requires_grad=True)
    mask = Tensor(x.data > 0.5)
    np.testing.assert_array_equal(mask.data, [0.0, 0.0, 1.0])
    assert mask.data.dtype == np.float64
    assert not mask.requires_grad


def test_leaf_does_not_alias_source_array():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    leaf = Tensor(source, requires_grad=True)
    source[0, 0] = 99.0
    np.testing.assert_array_equal(leaf.data, [[1.0, 2.0], [3.0, 4.0]])


def test_neighbor_sum_hand_case():
    x = Tensor([[1.0], [2.0], [4.0]], requires_grad=True)
    adjacency = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    out = T.matmul(adjacency, x)
    np.testing.assert_array_equal(out.data, [[2.0], [5.0], [2.0]])
    out.sum().backward()
    # node 0 feeds node 1, node 1 feeds nodes 0 and 2, node 2 feeds node 1
    np.testing.assert_array_equal(x.grad, [[1.0], [2.0], [1.0]])


def test_finite_difference_constant_gradient():
    x = Tensor(np.random.default_rng(2).normal(size=(3, 2)), requires_grad=True)
    err = finite_difference_check(lambda t: t.sum(), x)
    assert err < 1e-10


def test_finite_difference_catches_wrong_gradient_of_shifted_scalar():
    x = Tensor(1.0, requires_grad=True)
    x.data = x.data + 0.5  # out of place: leaves a numpy scalar, not an array

    def f(t):  # value 3t, but the analytic gradient reads 0
        return t * 0.0 + Tensor(3.0 * t.data)

    assert finite_difference_check(f, x) > 1.0


@pytest.mark.parametrize(
    "name,fn,rows,cols",
    [
        ("add", lambda x, y: (x + y).sum(), 3, 4),
        ("sub", lambda x, y: (x - y).sum(), 3, 4),
        ("mul", lambda x, y: (x * y).sum(), 3, 4),
        ("matmul", lambda x, y: (x @ Tensor(y.data.T)).sum(), 3, 4),
    ],
)
def test_gradient_check_binary_ops(name, fn, rows, cols):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    y = Tensor(rng.normal(size=(rows, cols)))
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    err = finite_difference_check(lambda t: fn(t, y), x)
    assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize(
    "name,fn",
    [
        ("scalar_mul", lambda x: (x * 2.5).sum()),
        ("relu", lambda x: T.relu(x).sum()),
        ("sigmoid", lambda x: (_edge_weights(x) * _edge_weights(x)).sum()),
        ("exp", lambda x: T.exp(x).sum()),
        ("log", lambda x: T.log(x + 5.0).sum()),
        ("softmax", lambda x: (T.softmax(x, axis=1) * T.softmax(x, axis=1)).sum()),
        ("log_softmax", lambda x: (T.log_softmax(x, axis=1) * Tensor(np.arange(12.0).reshape(3, 4))).sum()),
        ("sum_axis0", lambda x: (T.tensor_sum(x, axis=0) * T.tensor_sum(x, axis=0)).sum()),
        ("sum_keepdims", lambda x: (x * T.tensor_sum(x, axis=1, keepdims=True)).sum()),
        ("pairwise", lambda x: (_edge_weights(x) * Tensor(_PAIR_WEIGHTS)).sum()),
        ("sparse_matmul", lambda x: (T.matmul(_SPARSE_ADJ, x) * T.matmul(_SPARSE_ADJ, x)).sum()),
        ("sparse_pool", lambda x: (T.matmul(_SPARSE_POOL, x) * T.matmul(_SPARSE_POOL, x)).sum()),
    ],
)
def test_gradient_check_unary_ops(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    err = finite_difference_check(fn, x, step=1e-5)
    assert err < 1e-4, f"{name}: {err}"


def _edge_weights(x):
    return logistic_edge_weights(x, Tensor(-0.5), Tensor(0.3))


_PAIR_WEIGHTS = np.random.default_rng(7).normal(size=(3, 3))
# directed edges 0->1, 1->2, 2->0, 2->1 as adjacency[dst, src]
_SPARSE_ADJ = sp.csr_matrix((np.ones(4), ([1, 2, 0, 1], [0, 1, 2, 2])), shape=(3, 3))
# mean pooling of rows {0} and {1, 2}
_SPARSE_POOL = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]))


def test_gradient_check_many_seeds():
    # deeper composite expression, several random draws
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)))
        mix = Tensor(rng.normal(size=(4, 4)))

        def f(t):
            z = T.relu(t @ w)
            a = logistic_edge_weights(z, Tensor(0.2), Tensor(0.5))
            return (a * mix).sum() + T.log(T.exp(t).sum())

        assert finite_difference_check(f, x) < 1e-4
