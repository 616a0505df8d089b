import gc
import weakref
import zlib

import numpy as np
import pytest

from popgraph import tensor as T
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.data import GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.degree_loss import TargetDistribution, degree_loss, total_loss
from popgraph.latent_graph import LatentGraphParams, logistic_edge_weights
from popgraph.node_level import NodeLevelConfig, NodeLevelModule
from popgraph.tensor import ShapeError, Tape, Tensor, finite_difference_check


@pytest.mark.parametrize("call,name", [
    (lambda: LatentGraphParams([3, 2], np.random.default_rng(0)).forward(np.ones((4, 3))), "h"),
    (lambda: LatentGraphParams([3, 2], np.random.default_rng(0)).init_threshold(np.ones((4, 3))),
     "h"),
    (lambda: cross_entropy(np.zeros((2, 2)), [0, 1]), "logits"),
    (lambda: degree_loss(np.eye(4), TargetDistribution.for_support(4)), "a_p"),
], ids=["latent_graph_forward", "init_threshold", "cross_entropy", "degree_loss"])
def test_an_array_given_for_a_tensor_is_a_type_error_naming_the_argument(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be a Tensor, not ndarray$"):
        call()


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = a @ Tensor(np.eye(2))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_repr_names_shape_gradient_flag_and_name():
    assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert (repr(Tensor(1.0, requires_grad=True, name="t"))
            == "Tensor(shape=(), requires_grad=True, name='t')")


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)


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


def test_step_tape_holds_one_population_matrix_and_only_leaf_grads(traced):
    loss, a, _ = _training_step(graphs_per_class=512)()
    n = a.shape[0]
    tape = Tape.trace(loss)
    square = [t for t in tape.entries if t.shape == (n, n)]
    assert len(square) == 1 and square[0] is a
    # f3 and NDDL send the population graph its gradient as factors, and f2's
    # rule builds it a row block at a time: the backward allocates less than
    # one N x N array at any moment
    _, peak, _ = traced(loss.backward)
    assert peak < n * n * 8
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
    y = T.exp(T.log_softmax(x))
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)
    shifted = T.exp(T.log_softmax(Tensor(x.data + 3.7)))
    np.testing.assert_allclose(shifted.data, y.data, atol=1e-12)


def test_tensor_rebuilt_from_an_output_is_a_constant():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    loss = (Tensor(y.data) * y).sum()
    loss.backward()
    # a tensor rebuilt from y's values is a constant: d/dx (c * 3x) = 3c
    np.testing.assert_allclose(x.grad, 3.0 * y.data)


def test_tensor_of_a_bool_mask_is_a_float64_constant():
    x = Tensor([0.2, 0.5, 0.9], requires_grad=True)
    mask = Tensor(x.data > 0.5)
    np.testing.assert_array_equal(mask.data, [0.0, 0.0, 1.0])
    assert mask.data.dtype == np.float64
    assert not mask.requires_grad


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_log_softmax_rejects_a_non_finite_input(value):
    with pytest.raises(ValueError, match="log_softmax: input contains non-finite values"):
        T.log_softmax(Tensor([[1.0, value]]))


@pytest.mark.parametrize("shape", [(3,), (1, 3, 2)], ids=["1d", "3d"])
def test_matmul_rejects_an_operand_that_is_not_2d(shape):
    with pytest.raises(ShapeError, match="matmul expects 2-D operands"):
        T.matmul(Tensor(np.ones(shape)), Tensor(np.ones((3, 2))))


def test_factored_grad_to_dense_sums_every_term():
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, 4, 2))
    c, extra, a = rng.normal(size=4), rng.normal(size=(4, 4)), rng.random((4, 4))
    grad = T.FactoredGrad(outer=[(u, v)], masked=[(0.5, c)], dense=[extra])
    np.testing.assert_allclose(grad.to_dense(a), u @ v.T + (a > 0.5) * c[:, None] + extra,
                               rtol=1e-15)


def test_leaf_does_not_alias_source_array():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    leaf = Tensor(source, requires_grad=True)
    source[0, 0] = 99.0
    np.testing.assert_array_equal(leaf.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_by_an_adjacency_hand_case():
    x = Tensor([[1.0], [2.0], [4.0]], requires_grad=True)
    adjacency = Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
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


@pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf])
def test_finite_difference_rejects_a_step_that_is_not_finite_and_positive(step):
    # a NaN or infinite step would return NaN, which no tolerance flags
    x = Tensor([1.0, 2.0], requires_grad=True)
    message = "is not positive" if np.isfinite(step) else "is not a finite real number"
    with pytest.raises(ValueError, match=f"step={step!r} {message}"):
        finite_difference_check(lambda t: t.sum(), x, step=step)


@pytest.mark.parametrize("step", [True, "1e-5"])
def test_finite_difference_rejects_a_step_that_is_not_a_real_number(step):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match=f"step={step!r} is not a finite real number"):
        finite_difference_check(lambda t: t.sum(), x, step=step)


def test_finite_difference_rejects_an_x_the_loss_does_not_reach():
    x = Tensor([1.0, 2.0], requires_grad=True)
    other = Tensor([3.0], requires_grad=True)
    with pytest.raises(ValueError, match="x does not receive a gradient from f"):
        finite_difference_check(lambda t: (other * other).sum(), x)


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
        ("exp", lambda x: T.exp(x).sum()),
        ("log", lambda x: T.log(x + 5.0).sum()),
        ("softmax", lambda x: (T.exp(T.log_softmax(x)) * T.exp(T.log_softmax(x))).sum()),
        ("log_softmax", lambda x: (T.log_softmax(x) * Tensor(np.arange(12.0).reshape(3, 4))).sum()),
        ("adjacency_matmul", lambda x: (T.matmul(_ADJACENCY, x) * T.matmul(_ADJACENCY, x)).sum()),
        ("pooling_matmul", lambda x: (T.matmul(_POOLING, x) * T.matmul(_POOLING, x)).sum()),
    ],
)
def test_gradient_check_unary_ops(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    err = finite_difference_check(fn, x, step=1e-5)
    assert err < 1e-4, f"{name}: {err}"


# directed edges 0->1, 1->2, 2->0, 2->1 as adjacency[dst, src]
_ADJACENCY = Tensor([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
# mean pooling of rows {0} and {1, 2}
_POOLING = Tensor([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])


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
