import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from popgraph import tensor as T
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.data import GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.degree_loss import TargetDistribution, degree_loss, total_loss
from popgraph.latent_graph import LatentGraphParams
from popgraph.node_level import NodeLevelConfig, NodeLevelModule
from popgraph.tensor import ShapeError, Tape, Tensor, finite_difference_check


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = a @ Tensor(np.eye(2))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_sigmoid_midpoint():
    assert T.sigmoid(Tensor(0.0)).item() == 0.5


def test_pairwise_euclidean_345():
    d = T.pairwise_euclidean(Tensor([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(d.data, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)


def test_backward_sigmoid_grad_quarter():
    x = Tensor(0.0, requires_grad=True)
    loss = T.sigmoid(x) * Tensor(1.0)
    loss.backward()
    np.testing.assert_allclose(x.grad, 0.25, rtol=1e-12)


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


def test_step_tape_is_freed_without_cycle_collector():
    spec = SyntheticSpec(classes=2, graphs_per_class=3, nodes_min=3, nodes_max=5,
                         topology="ambiguous_features", feature_dim=2, noise_sigma=0.5)
    batch = GraphBatch(make_synthetic_dataset(spec, seed=0))
    rng = np.random.default_rng(0)
    f1 = NodeLevelModule(NodeLevelConfig(layer_dims=[4]), 2, rng)
    f2 = LatentGraphParams([4, 3], rng)
    f3 = PopulationClassifier(ClassifierConfig(gnn_dims=[4], head_dims=[2]), 4, rng)
    target = TargetDistribution.for_support(len(batch))

    def step():
        h = f1.forward(batch)
        a = f2.forward(h).a_p
        _, logits = f3.forward(h, a)
        kl, _ = degree_loss(a, target)
        loss = total_loss(cross_entropy(logits, batch.labels), kl, 1.0)
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


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)))
    y = T.softmax(x, axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)
    shifted = T.softmax(Tensor(x.data + 3.7), axis=1)
    np.testing.assert_allclose(shifted.data, y.data, atol=1e-12)


def test_pairwise_symmetric_zero_diagonal():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 4)))
    d = T.pairwise_euclidean(x).data
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), np.zeros(6))


def test_pairwise_zero_distance_has_finite_gradient():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    T.pairwise_euclidean(x).sum().backward()
    np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))


def test_stop_gradient_blocks_flow():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    loss = (T.stop_gradient(y) * y).sum()
    loss.backward()
    # only the non-stopped branch contributes: d/dx (c * 3x) = 3c
    np.testing.assert_allclose(x.grad, 3.0 * y.data)


def test_greater_mask_is_constant():
    x = Tensor([0.2, 0.5, 0.9], requires_grad=True)
    mask = T.greater(x, 0.5)
    np.testing.assert_array_equal(mask.data, [0.0, 0.0, 1.0])
    assert not mask.requires_grad


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


@pytest.mark.parametrize(
    "name,fn,rows,cols",
    [
        ("add", lambda x, y: (x + y).sum(), 3, 4),
        ("sub", lambda x, y: (x - y).sum(), 3, 4),
        ("mul", lambda x, y: (x * y).sum(), 3, 4),
        ("matmul", lambda x, y: (x @ T.transpose(y)).sum(), 3, 4),
    ],
)
def test_gradient_check_binary_ops(name, fn, rows, cols):
    rng = np.random.default_rng(hash(name) % 2**32)
    y = Tensor(rng.normal(size=(rows, cols)))
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    err = finite_difference_check(lambda t: fn(t, y), x)
    assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize(
    "name,fn",
    [
        ("scalar_mul", lambda x: (x * 2.5).sum()),
        ("relu", lambda x: T.relu(x).sum()),
        ("sigmoid", lambda x: (T.sigmoid(x) * T.sigmoid(x)).sum()),
        ("exp", lambda x: T.exp(x).sum()),
        ("log", lambda x: T.log(x + 5.0).sum()),
        ("softmax", lambda x: (T.softmax(x, axis=1) * T.softmax(x, axis=1)).sum()),
        ("log_softmax", lambda x: (T.log_softmax(x, axis=1) * Tensor(np.arange(12.0).reshape(3, 4))).sum()),
        ("sum_axis0", lambda x: (T.tensor_sum(x, axis=0) * T.tensor_sum(x, axis=0)).sum()),
        ("sum_keepdims", lambda x: (x * T.tensor_sum(x, axis=1, keepdims=True)).sum()),
        ("mean_axis1", lambda x: (T.tensor_mean(x, axis=1) * T.tensor_mean(x, axis=1)).sum()),
        ("mean_full", lambda x: x.mean() * x.mean()),
        ("pairwise", lambda x: (T.pairwise_euclidean(x) * Tensor(_PAIR_WEIGHTS)).sum()),
        ("transpose", lambda x: (T.transpose(x) @ x).sum()),
        ("reshape", lambda x: (T.reshape(x, (4, 3)) * T.reshape(x, (4, 3))).sum()),
        ("concat", lambda x: (T.concatenate([x, x * 2.0], axis=0)
                              * T.concatenate([x * 3.0, x], axis=0)).sum()),
        ("sparse_matmul", lambda x: (T.matmul(_SPARSE_ADJ, x) * T.matmul(_SPARSE_ADJ, x)).sum()),
        ("sparse_pool", lambda x: (T.matmul(_SPARSE_POOL, x) * T.matmul(_SPARSE_POOL, x)).sum()),
    ],
)
def test_gradient_check_unary_ops(name, fn):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    err = finite_difference_check(fn, x, step=1e-5)
    assert err < 1e-4, f"{name}: {err}"


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
            d = T.pairwise_euclidean(z)
            return (T.sigmoid(d) * mix).sum() + T.log(T.exp(t).sum())

        assert finite_difference_check(f, x) < 1e-4
