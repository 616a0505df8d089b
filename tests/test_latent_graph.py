import math
import os
import subprocess
import sys
import zlib

import numpy as np

import pytest
from scipy.special import expit

import popgraph
from popgraph.degree_loss import degree_histogram
from popgraph.latent_graph import LatentGraphParams, logistic_edge_weights, pairwise_distances
from popgraph.nn import ROW_BLOCK
from popgraph.tensor import ShapeError, Tensor, finite_difference_check


def make_params(dims, rng=None):
    return LatentGraphParams(dims, rng or np.random.default_rng(0))


def test_identity_layer_embeds_identically():
    params = make_params([3, 3])
    params.mlp.layers[0].weight.data = np.eye(3)
    params.mlp.layers[0].bias.data = np.zeros(3)
    h = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
    np.testing.assert_array_equal(params.mlp.forward(h).data, h.data)


def test_zero_weights_collapse_distances():
    params = make_params([3, 2])
    params.mlp.layers[0].weight.data[:] = 0.0
    params.mlp.layers[0].bias.data[:] = 0.0
    h = Tensor(np.random.default_rng(2).normal(size=(5, 3)))
    np.testing.assert_array_equal(params.mlp.forward(h).data, np.zeros((5, 2)))
    pop = params.forward(h)
    # all off-diagonal weights equal the zero-distance value sigmoid(theta)
    off = pop.a_p.data[~np.eye(5, dtype=bool)]
    expected = 1.0 / (1.0 + math.exp(-float(params.theta.data)))
    np.testing.assert_allclose(off, expected, atol=1e-12)


def test_zero_distance_gives_half_weight():
    params = make_params([2, 2])
    params.theta.data = np.asarray(0.0)
    embedded = Tensor(np.zeros((3, 2)))
    a = logistic_edge_weights(embedded, params.t_raw, params.theta)
    off = a.data[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-12)


def test_weight_vanishes_at_large_distance():
    params = make_params([1, 1])
    params.theta.data = np.asarray(2.0)
    embedded = Tensor([[0.0], [1e6]])
    a = logistic_edge_weights(embedded, params.t_raw, params.theta)
    assert a.data[0, 1] < 1e-12


def test_weight_value_at_unit_distance():
    # t=2, theta=1, d=1 -> sigmoid(1 - 2) = 1/(1+e)
    params = make_params([1, 1])
    params.t_raw.data = np.asarray(math.log(2.0))
    params.theta.data = np.asarray(1.0)
    embedded = Tensor([[0.0], [1.0]])
    a = logistic_edge_weights(embedded, params.t_raw, params.theta)
    np.testing.assert_allclose(a.data[0, 1], 1.0 / (1.0 + math.e), atol=1e-12)
    np.testing.assert_allclose(a.data[0, 1], 0.2689414213699951, atol=1e-12)


def test_population_graph_invariants():
    rng = np.random.default_rng(3)
    params = make_params([4, 3], rng)
    h = Tensor(rng.normal(size=(8, 4)))
    a = params.forward(h).a_p.data
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(a), np.zeros(8))
    off = a[~np.eye(8, dtype=bool)]
    assert np.all((off > 0.0) & (off < 1.0))


def test_ordering_property():
    rng = np.random.default_rng(4)
    params = make_params([2, 2], rng)
    embedded = Tensor(rng.normal(size=(6, 2)) * 3.0)
    a = logistic_edge_weights(embedded, params.t_raw, params.theta)
    d = np.linalg.norm(
        embedded.data[:, None, :] - embedded.data[None, :, :], axis=2
    )
    iu = np.triu_indices(6, k=1)
    dist, weight = d[iu], a.data[iu]
    order = np.argsort(dist)
    assert np.all(np.diff(weight[order]) <= 1e-12)  # closer pairs weigh more


def test_translation_invariance():
    rng = np.random.default_rng(5)
    params = make_params([2, 2], rng)
    embedded = rng.normal(size=(5, 2))
    a1 = logistic_edge_weights(Tensor(embedded), params.t_raw, params.theta).data
    a2 = logistic_edge_weights(Tensor(embedded + 7.25), params.t_raw, params.theta).data
    np.testing.assert_allclose(a1, a2, atol=1e-12)


def test_weight_derivative_signs():
    rng = np.random.default_rng(6)
    params = make_params([2, 2], rng)
    embedded = Tensor(rng.normal(size=(4, 2)), requires_grad=False)
    eps = 1e-6
    base = logistic_edge_weights(embedded, params.t_raw, params.theta).data
    params.theta.data = params.theta.data + eps
    up = logistic_edge_weights(embedded, params.t_raw, params.theta).data
    params.theta.data = params.theta.data - eps
    off = ~np.eye(4, dtype=bool)
    assert np.all((up - base)[off] > 0)  # da/dtheta > 0
    scaled = logistic_edge_weights(Tensor(embedded.data * (1 + eps)), params.t_raw,
                                   params.theta).data
    assert np.all((scaled - base)[off] < 0)  # da/dd < 0


def test_gradient_check_through_edge_weights():
    rng = np.random.default_rng(7)
    params = make_params([3, 2], rng)
    h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    mix = Tensor(rng.normal(size=(5, 5)))

    def f(_):
        return (params.forward(h).a_p * mix).sum()

    for target in [h, params.t_raw, params.theta] + params.mlp.parameters():
        err = finite_difference_check(f, target)
        assert err < 1e-4, f"{target.name}: {err}"


def test_pairwise_euclidean_345():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)


def test_backward_sigmoid_grad_quarter():
    theta = Tensor(0.0, requires_grad=True)
    a = logistic_edge_weights(Tensor(np.zeros((2, 3))), Tensor(0.0), theta)
    loss = (a * Tensor([[0.0, 1.0], [0.0, 0.0]])).sum()  # the one weight a_01
    loss.backward()
    np.testing.assert_allclose(theta.grad, 0.25, rtol=1e-12)


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


def _edge_weights(x):
    return logistic_edge_weights(x, Tensor(-0.5), Tensor(0.3))


_PAIR_WEIGHTS = np.random.default_rng(7).normal(size=(3, 3))


@pytest.mark.parametrize(
    "name,fn",
    [
        ("sigmoid", lambda x: (_edge_weights(x) * _edge_weights(x)).sum()),
        ("pairwise", lambda x: (_edge_weights(x) * Tensor(_PAIR_WEIGHTS)).sum()),
    ],
)
def test_gradient_check_edge_weights(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    err = finite_difference_check(fn, x, step=1e-5)
    assert err < 1e-4, f"{name}: {err}"


def test_threshold_initialization_centers_median():
    rng = np.random.default_rng(8)
    params = make_params([3, 2], rng)
    h = Tensor(rng.normal(size=(10, 3)))
    params.init_threshold(h)
    pop = params.forward(h)
    off = pop.a_p.data[~np.eye(10, dtype=bool)]
    above = (off > 0.5).mean()
    assert 0.3 < above < 0.7  # roughly half density at start


def test_edge_weights_gradient_check_with_duplicate_rows():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3))
    x[4] = x[1]  # duplicate rows: an off-diagonal distance of exactly 0
    x[5] = x[2]
    z = Tensor(x, requires_grad=True)
    t_raw = Tensor(0.3, requires_grad=True, name="t_raw")
    theta = Tensor(0.8, requires_grad=True, name="theta")
    assert pairwise_distances(x)[1, 4] == 0.0 and pairwise_distances(x)[2, 5] == 0.0
    mix = Tensor(rng.normal(size=(6, 6)))  # not symmetric, like a real upstream gradient

    def f(_):
        return (logistic_edge_weights(z, t_raw, theta) * mix).sum()

    for target in (z, t_raw, theta):
        err = finite_difference_check(f, target)
        assert err < 1e-6, f"{target.name}: {err}"


# three row blocks, the last one ragged
BLOCKED_N = 2 * ROW_BLOCK + 5


@pytest.mark.parametrize("n", [4, 64, BLOCKED_N])
def test_threshold_even_pair_count_keeps_full_matrix_median(n):
    rng = np.random.default_rng(10)
    params = make_params([3, 2], rng)
    params.t_raw.data = np.asarray(0.4)
    h = Tensor(rng.normal(size=(n, 3)))
    params.init_threshold(h)
    dist = pairwise_distances(params.mlp.forward(h).data)
    full_median = float(np.median(dist[~np.eye(n, dtype=bool)]))
    assert params.theta.item() == full_median * params.temperature


@pytest.mark.parametrize("n", [3, 6, 2 * ROW_BLOCK + 2])
def test_threshold_odd_pair_count_keeps_pairs_off_half(n):
    rng = np.random.default_rng(11)
    params = make_params([3, 2], rng)
    h = Tensor(rng.normal(size=(n, 3)))
    params.init_threshold(h)
    pairs = np.sort(pairwise_distances(params.mlp.forward(h).data)[np.triu_indices(n, k=1)])
    k = pairs.size // 2
    assert params.theta.item() == 0.5 * (pairs[k] + pairs[k + 1]) * params.temperature
    off = params.forward(h).a_p.data[~np.eye(n, dtype=bool)]
    assert np.all(off != 0.5)
    assert np.count_nonzero(off > 0.5) == 2 * (k + 1)  # the middle pair joins


@pytest.mark.parametrize(
    "positions",
    [np.append(np.arange(0.0, 841.0, 5.0), 0.0),  # integer distances 0..840, one duplicate
     np.append(np.random.default_rng(12).uniform(0.0, 840.0, size=200), [0.0, 40.0]),
     # N = ROW_BLOCK: the whole matrix is one block
     np.append(np.linspace(0.0, 840.0, ROW_BLOCK - 2), [0.0, 40.0])],
    ids=["integer_line", "uniform_line", "one_block_line"],
)
def test_edge_weights_match_expit_oracle(positions):
    # logits theta - t * d run from ~40 down to -800, through exactly 0 at
    # d = 40, and past exp's overflow at ~-709.78
    z = Tensor(positions[:, None])
    t_raw, theta = Tensor(0.0), Tensor(40.0)
    a = logistic_edge_weights(z, t_raw, theta).data
    logits = theta.item() - float(np.exp(t_raw.data)) * pairwise_distances(z.data)
    oracle = expit(logits)
    off = ~np.eye(len(positions), dtype=bool)
    assert logits[off].max() > 30.0 and logits[off].min() < -750.0
    normal = off & (oracle >= 1e-300)
    np.testing.assert_allclose(a[normal], oracle[normal], rtol=1e-15, atol=0.0)
    overflow = off & (-logits > np.log(np.finfo(np.float64).max))
    assert overflow.any()
    assert np.all(a[overflow] == 0.0)
    zero = off & (logits == 0.0)
    assert zero.any()
    assert np.all(a[zero] == 0.5)
    np.testing.assert_array_equal(np.diag(a), 0.0)
    np.testing.assert_array_equal(a, a.T)


def check_nan_row_propagates(n, row):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(n, 3))
    x[row, 1] = np.nan
    a_p = logistic_edge_weights(Tensor(x), Tensor(0.2), Tensor(1.5))
    off = ~np.eye(n, dtype=bool)
    in_row_or_column = np.zeros((n, n), dtype=bool)
    in_row_or_column[row, :] = in_row_or_column[:, row] = True
    assert np.all(np.isnan(a_p.data[off & in_row_or_column]))
    assert np.all(np.isfinite(a_p.data[~in_row_or_column]))
    with pytest.raises(ValueError, match="non-finite"):
        degree_histogram(a_p)


def test_edge_weights_nan_row_propagates_to_degree_histogram():
    check_nan_row_propagates(6, 2)


def test_edge_weights_nan_row_in_second_block_propagates_to_degree_histogram():
    check_nan_row_propagates(BLOCKED_N, ROW_BLOCK + 7)


@pytest.mark.parametrize("second_row", [[1.0, -2.0, 0.5], [0.3, 0.7, -1.1]],
                         ids=["distinct", "identical"])
def test_threshold_rejects_a_single_pair(second_row):
    params = make_params([3, 2])
    h = Tensor([[0.3, 0.7, -1.1], second_row])
    theta = params.theta.item()
    with pytest.raises(ValueError, match="at least 3 rows"):
        params.init_threshold(h)
    assert params.theta.item() == theta


@pytest.mark.parametrize("n", [0, 1])
def test_threshold_of_fewer_than_two_rows_leaves_theta_unchanged(n):
    params = make_params([3, 2])
    theta = params.theta.item()
    params.init_threshold(Tensor(np.ones((n, 3))))
    assert params.theta.item() == theta


def test_threshold_partitions_the_pair_distances_in_place(traced):
    # the n(n-1)/2 pair distances set the peak; a partitioned copy would double it
    n = 1024
    rng = np.random.default_rng(14)
    params = make_params([3, 8, 4], rng)
    h = Tensor(rng.normal(size=(n, 3)))
    _, peak, _ = traced(params.init_threshold, h)
    # the pairs, the kernel's block and its sums, and 384 KiB for the rest;
    # a copy of one block's right part (512 KB) would cross it
    blocks = 2 * ROW_BLOCK * n * 8
    bound = n * (n - 1) // 2 * 8 + blocks + 384 * 1024
    assert peak < bound, f"{peak} bytes at the peak, bound {bound}"


def test_pairwise_distances_reject_an_array_that_is_not_2d():
    with pytest.raises(ShapeError, match=r"2-D array of rows, got \(4,\)"):
        pairwise_distances(np.ones(4))


@pytest.mark.parametrize("z,t_raw,theta,entry", [
    (np.ones(3), 0.0, 1.0, r"2-D embedding, got \(3,\)"),
    (np.eye(3), [0.0], 1.0, r"scalar t_raw, got shape \(1,\)"),
    (np.eye(3), 0.0, [1.0, 2.0, 3.0], r"scalar theta, got shape \(3,\)"),
], ids=["embedding", "t_raw", "theta"])
def test_edge_weights_reject_an_input_of_the_wrong_rank(z, t_raw, theta, entry):
    # a theta per row would give an asymmetric a_p and theta a gradient of the wrong shape
    with pytest.raises(ShapeError, match=entry):
        logistic_edge_weights(Tensor(z), Tensor(t_raw, requires_grad=True),
                              Tensor(theta, requires_grad=True))


def blocked_embedding(seed):
    """BLOCKED_N rows with equal rows inside a block and across block boundaries."""
    x = np.random.default_rng(seed).normal(size=(BLOCKED_N, 3))
    x[ROW_BLOCK + 2] = x[3]
    x[2 * ROW_BLOCK + 1] = x[ROW_BLOCK - 1]
    x[2 * ROW_BLOCK + 4] = x[2 * ROW_BLOCK]
    return x


def test_blocked_distances_match_direct_oracle():
    x = blocked_embedding(14)
    d = pairwise_distances(x)
    oracle = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    np.testing.assert_allclose(d, oracle, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), 0.0)
    assert d[3, ROW_BLOCK + 2] == 0.0 and d[ROW_BLOCK - 1, 2 * ROW_BLOCK + 1] == 0.0


def test_blocked_edge_weights_match_unblocked_expit_oracle():
    x = blocked_embedding(15) * 2.0
    t_raw, theta = Tensor(0.4), Tensor(2.5)
    a = logistic_edge_weights(Tensor(x), t_raw, theta).data
    # the same expanded form over the whole matrix: one product, its upper
    # triangle mirrored
    minus2gram = x @ (-2.0 * x).T
    sq_norms = -0.5 * np.diag(minus2gram)
    dist = np.sqrt(np.maximum(sq_norms[:, None] + sq_norms[None, :] + minus2gram, 0.0))
    dist = np.triu(dist) + np.triu(dist, k=1).T
    oracle = expit(theta.item() - float(np.exp(t_raw.data)) * dist)
    off = ~np.eye(BLOCKED_N, dtype=bool)
    np.testing.assert_allclose(a[off], oracle[off], rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(a, a.T)
    np.testing.assert_array_equal(np.diag(a), 0.0)


def test_blocked_edge_weights_gradient_check_with_duplicate_rows():
    rng = np.random.default_rng(16)
    z = Tensor(blocked_embedding(16), requires_grad=True)
    t_raw = Tensor(0.3, requires_grad=True, name="t_raw")
    theta = Tensor(0.8, requires_grad=True, name="theta")
    mix = Tensor(rng.normal(size=(BLOCKED_N, BLOCKED_N)))  # not symmetric

    def f(_):
        return (logistic_edge_weights(z, t_raw, theta) * mix).sum()

    for target in (z, t_raw, theta):
        err = finite_difference_check(f, target)
        assert err < 1e-6, f"{target.name}: {err}"


@pytest.mark.parametrize("n,row", [(6, 2), (BLOCKED_N, ROW_BLOCK + 7)])
def test_threshold_rejects_non_finite_embedding_row(n, row):
    params = make_params([3, 2])
    x = np.random.default_rng(17).normal(size=(n, 3))
    x[row, 0] = np.nan
    theta = params.theta.item()
    with pytest.raises(ValueError, match=f"embedding row {row} is not finite"):
        params.init_threshold(Tensor(x))
    assert params.theta.item() == theta


# One backward of the edge weights at N = 1024 under a factored upstream (f3's
# outer product and NDDL's masked columns), printing theta's and t's gradients.
THREAD_PROBE = """
import numpy as np
from popgraph.degree_loss import degree_histogram
from popgraph.latent_graph import logistic_edge_weights, pairwise_distances
from popgraph.nn import GraphConv
from popgraph.tensor import Tensor

rng = np.random.default_rng(18)
n = 1024
z = Tensor(rng.normal(size=(n, 16)), requires_grad=True)
t_raw = Tensor(0.2, requires_grad=True)
theta = Tensor(np.median(pairwise_distances(z.data)) * np.exp(0.2), requires_grad=True)
a = logistic_edge_weights(z, t_raw, theta)
conv = GraphConv(8, 4, rng)
readout = conv.forward(Tensor(rng.normal(size=(n, 8))), a) * Tensor(rng.normal(size=(n, 4)))
loss = readout.sum() + (degree_histogram(a) * Tensor(rng.normal(size=n))).sum()
loss.backward()
print(float(theta.grad).hex(), float(t_raw.grad).hex())
"""


def test_theta_and_t_gradients_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(popgraph.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                             text=True, encoding="utf-8", timeout=120, check=True)
        outputs.append(run.stdout.split())
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]
