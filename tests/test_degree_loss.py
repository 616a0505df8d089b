import math
import re

import numpy as np
import pytest

from popgraph.degree_loss import (
    ASSIGN_SIGMA,
    ASSIGN_REACH,
    KL_EPSILON,
    TargetDistribution,
    degree_histogram,
    degree_loss,
    kl_divergence,
    total_loss,
)
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.latent_graph import LatentGraphParams, logistic_edge_weights, pairwise_distances
from popgraph.nn import ROW_BLOCK
from popgraph.tensor import ShapeError, Tensor, exp, finite_difference_check, log


def random_population_matrix(rng, n):
    """Symmetric zero-diagonal matrix of (0,1) weights, like a learned A_p."""
    raw = rng.random((n, n))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return sym


def circulant(n, weights):
    """Symmetric n x n matrix joining i and i + k (mod n) with weight weights[k]."""
    a = np.zeros((n, n))
    for k, w in weights.items():
        for i in range(n):
            a[i, (i + k) % n] = a[(i + k) % n, i] = w
    return a


def histogram_oracle(degrees, n):
    """Nodes-major numpy NDDL histogram: each degree's Gaussian soft assignment
    to the bins 0..n-1, averaged over nodes."""
    degrees = np.asarray(degrees, dtype=np.float64)
    scores = -((np.arange(n)[None, :] - degrees[:, None]) ** 2) / ASSIGN_SIGMA**2
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)).mean(axis=0)


def kl_oracle(degrees, target, n):
    p = histogram_oracle(degrees, n)
    q = exp(target.log_distribution(n)).data
    return float(np.sum(p * (np.log(p + KL_EPSILON) - np.log(q))))


def histogram(a):
    """The degree histogram ``p`` that degree_loss returns for adjacency ``a``."""
    a = np.asarray(a, dtype=np.float64)
    _, p = degree_loss(Tensor(a), TargetDistribution.for_support(a.shape[0]))
    return p.data


@pytest.mark.parametrize("n", [0, 2.5, True, -3])
def test_target_for_support_rejects_a_size_that_is_not_a_positive_integer(n):
    entry = f"n={n!r} is below 1" if n in (0, -3) else f"n={n!r} is not an integer"
    with pytest.raises(ValueError, match=entry):
        TargetDistribution.for_support(n)
    target = TargetDistribution.for_support(np.int64(8))
    assert target.sigma == 1.0
    with pytest.raises(ValueError, match=entry):
        target.log_distribution(n)
    assert target.log_distribution(np.int64(8)).shape == (8,)


def test_threshold_keeps_values_above_half():
    a = [[0.0, 0.9], [0.9, 0.0]]
    np.testing.assert_allclose(histogram(a), histogram_oracle([0.9, 0.9], 2), atol=1e-12)


def test_threshold_zeroes_values_below_half():
    a = [[0.0, 0.3], [0.3, 0.0]]
    np.testing.assert_allclose(histogram(a), histogram_oracle([0.0, 0.0], 2), atol=1e-12)


def test_threshold_boundary_is_strict():
    a = [[0.0, 0.5, 0.9], [0.5, 0.0, 0.9], [0.9, 0.9, 0.0]]
    # the entries at exactly 0.5 are zeroed: degrees 0.9, 0.9, 1.8, not 1.4, 1.4, 1.8
    np.testing.assert_allclose(histogram(a), histogram_oracle([0.9, 0.9, 1.8], 3), atol=1e-12)


def test_gradient_only_through_surviving_entries():
    a = Tensor([[0.0, 0.9, 0.3], [0.9, 0.0, 0.3], [0.3, 0.3, 0.0]], requires_grad=True)
    target = TargetDistribution.for_support(3)
    kl, _ = degree_loss(a, target)
    kl.backward()
    survives = a.data > 0.5
    np.testing.assert_array_equal(a.grad[~survives], 0.0)
    # a surviving a_ij moves only the degree of node i
    degrees = (a.data * survives).sum(axis=1)
    step = 1e-6
    d_kl = np.array([
        (kl_oracle(degrees + step * e, target, 3) - kl_oracle(degrees - step * e, target, 3))
        / (2.0 * step)
        for e in np.eye(3)
    ])
    np.testing.assert_allclose(a.grad[survives],
                               np.broadcast_to(d_kl[:, None], (3, 3))[survives], rtol=1e-6)
    assert np.all(a.grad[survives] != 0.0)


def test_node_degrees_arithmetic():
    a = np.full((4, 4), 0.9)
    np.fill_diagonal(a, 0.0)
    np.testing.assert_allclose(histogram(a), histogram_oracle(np.full(4, 2.7), 4), atol=1e-12)
    np.testing.assert_allclose(histogram(np.zeros((3, 3))), histogram_oracle(np.zeros(3), 3),
                               atol=1e-12)


def test_node_degrees_match_independent_row_sums():
    rng = np.random.default_rng(0)
    a = rng.random((7, 7))  # not symmetric: the degree of node i sums row i
    np.fill_diagonal(a, 0.0)
    a_bar = a * (a > 0.5)
    oracle = np.array([sum(a_bar[i][j] for j in range(7)) for i in range(7)])
    np.testing.assert_allclose(histogram(a), histogram_oracle(oracle, 7), atol=1e-10)


def test_soft_assign_integer_degree_neighbor_weight():
    p = histogram(circulant(8, {1: 1.0, 4: 1.0}))  # every degree is 3
    assert np.argmax(p) == 3
    expected_ratio = math.exp(-1.0 / 0.36)
    np.testing.assert_allclose(p[2] / p[3], expected_ratio, atol=1e-6)
    np.testing.assert_allclose(p[4] / p[3], expected_ratio, atol=1e-6)


def test_soft_assign_halfway_degree_splits_evenly():
    p = histogram(circulant(6, {1: 0.75, 3: 1.0}))  # every degree is 2.5
    np.testing.assert_allclose(p[2], p[3], atol=1e-12)


def test_soft_assign_columns_are_distributions():
    rng = np.random.default_rng(1)
    for _ in range(5):
        weights = {k: float(rng.uniform(0.51, 1.0)) for k in (1, 2, 5)}
        degree = 2 * weights[1] + 2 * weights[2] + weights[5]
        # all ten nodes share one degree, so p is that degree's soft assignment
        p = histogram(circulant(10, weights))
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-10)
        np.testing.assert_allclose(p, histogram_oracle([degree], 10), atol=1e-10)


def test_degree_distribution_concentrates_at_common_degree():
    p = histogram(circulant(9, {1: 0.75, 2: 0.75}))  # every degree is 3
    assert np.argmax(p) == 3
    assert p[3] > 0.88  # sigma=0.6 leaks < 0.12 onto neighbors


def test_degree_distribution_two_nodes():
    p = histogram([[0.0, 1.0], [0.0, 0.0]])  # degrees 1 and 0
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_degree_distribution_sums_to_one():
    p = histogram(random_population_matrix(np.random.default_rng(2), 6))
    assert abs(p.sum() - 1.0) < 1e-10


def test_kl_identical_distributions_is_zero():
    p = Tensor(np.array([0.2, 0.3, 0.5]))
    assert abs(kl_divergence(p, log(Tensor(p.data))).item()) < 1e-9


def test_kl_analytic_value():
    p = Tensor(np.array([1.0, 0.0]))
    log_q = Tensor(np.log([0.5, 0.5]))
    np.testing.assert_allclose(kl_divergence(p, log_q).item(), math.log(2.0), atol=1e-9)


def test_kl_matches_direct_summation_oracle():
    rng = np.random.default_rng(3)
    raw = rng.random(12)
    p = raw / raw.sum()
    target = TargetDistribution.for_support(12)
    log_q = target.log_distribution(12)
    q = exp(log_q).data
    oracle = sum(p[i] * math.log((p[i] + 1e-12) / q[i]) for i in range(12))
    np.testing.assert_allclose(kl_divergence(Tensor(p), log_q).item(), oracle, atol=1e-10)


def test_target_distribution_is_positive_and_normalized():
    target = TargetDistribution.for_support(20)
    q = exp(target.log_distribution(20)).data
    assert np.all(q > 0)
    np.testing.assert_allclose(q.sum(), 1.0, atol=1e-12)
    assert abs(target.mu.item() - 5.0) < 1e-12
    assert abs(target.sigma - 2.5) < 1e-12


@pytest.mark.parametrize("mu,sigma,message", [
    (np.nan, 1.0, "mu=nan is not a finite real number"),
    (np.inf, 1.0, "mu=inf is not a finite real number"),
    (-np.inf, 1.0, "mu=-inf is not a finite real number"),
    (1.0, np.nan, "sigma=nan is not a finite real number"),
    (1.0, np.inf, "sigma=inf is not a finite real number"),  # would be a uniform target
    (1.0, 0.0, "sigma must be positive"),
    (1.0, -2.0, "sigma must be positive"),
    (True, 1.0, "mu=True is not a finite real number"),
    (1.0, True, "sigma=True is not a finite real number"),
    (None, 1.0, "mu=None is not a finite real number"),
    (1.0, "1", "sigma='1' is not a finite real number"),
])
def test_target_distribution_rejects_a_non_finite_or_non_positive_argument(mu, sigma, message):
    with pytest.raises(ValueError, match=message):
        TargetDistribution(mu, sigma)


def test_total_loss_reduces_to_ce_at_zero_alpha():
    ce = Tensor(0.7, requires_grad=True)
    kl = Tensor(0.3, requires_grad=True)
    assert total_loss(ce, kl, 0.0) is ce
    np.testing.assert_allclose(total_loss(ce, kl, 1.0).item(), 1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_total_loss_rejects_an_alpha_that_is_not_finite(alpha):
    with pytest.raises(ValueError, match=f"alpha={alpha!r} is not a finite real number"):
        total_loss(Tensor(0.7), Tensor(0.3), alpha)


def test_total_loss_rejects_a_negative_alpha():
    with pytest.raises(ValueError, match="alpha=-1.0 is below 0"):
        total_loss(Tensor(0.7), Tensor(0.3), -1.0)


@pytest.mark.parametrize("alpha", [True, "1"])
def test_total_loss_rejects_an_alpha_that_is_not_a_real_number(alpha):
    # True would train at alpha 1
    with pytest.raises(ValueError, match=f"alpha={alpha!r} is not a finite real number"):
        total_loss(Tensor(0.7), Tensor(0.3), alpha)
    for weight in (2, np.float64(2.0)):
        np.testing.assert_allclose(total_loss(Tensor(0.7), Tensor(0.3), weight).item(), 1.3)


def test_total_loss_gradient_linear_in_alpha():
    target = TargetDistribution.for_support(6)
    rng = np.random.default_rng(4)
    raw = rng.random(6)
    p = Tensor(raw / raw.sum())

    grads = []
    for alpha in (1.0, 2.5):
        kl = kl_divergence(p, target.log_distribution(6))
        loss = total_loss(Tensor(0.5), kl, alpha)
        loss.backward()
        grads.append(target.mu.grad.copy())
    np.testing.assert_allclose(grads[1], grads[0] * 2.5, rtol=1e-9)


def test_state_invariants_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 33))
        a = random_population_matrix(rng, n)
        target = TargetDistribution.for_support(n)
        kl, p = degree_loss(Tensor(a), target)
        degrees = np.where(a > 0.5, a, 0.0).sum(axis=1)
        assert p.shape == (n,) and np.all(p.data >= 0)
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-10)
        np.testing.assert_allclose(p.data, histogram_oracle(degrees, n), atol=1e-10)
        np.testing.assert_allclose(kl.item(), kl_oracle(degrees, target, n), atol=1e-10)
        assert kl.item() >= -1e-9


def test_end_to_end_gradient_check_with_frozen_mask():
    rng = np.random.default_rng(6)
    params = LatentGraphParams([3, 2], rng)
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    params.init_threshold(h)
    # 15 pairs: init_threshold splits the 8th and 9th distances, so no entry
    # sits near 0.5, finite-difference steps leave the mask unchanged and the
    # loss is smooth in every parameter
    target = TargetDistribution.for_support(6)
    a_p = params.forward(h).a_p.data
    off_diagonal = a_p[~np.eye(6, dtype=bool)]
    assert np.all(np.abs(off_diagonal - 0.5) > 1e-3)
    assert 0 < np.count_nonzero(off_diagonal > 0.5) < off_diagonal.size

    def f(_):
        kl, _ = degree_loss(params.forward(h).a_p, target)
        return total_loss(Tensor(0.0), kl, alpha=1.0)

    for tensor in [h, params.t_raw, params.theta, target.mu, target.sigma_raw] + params.mlp.parameters():
        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{tensor.name}: {err}"


def test_end_to_end_gradient_check_through_f3_and_nddl():
    # f2 -> f3 + cross-entropy -> NDDL over two row blocks: f3 and NDDL send
    # the edge weights their gradients as factors
    n = ROW_BLOCK + 6
    rng = np.random.default_rng(26)
    params = LatentGraphParams([3, 2], rng)
    classifier = PopulationClassifier(ClassifierConfig(gnn_dims=[3], head_dims=[2]), 3, rng)
    centres = 4.0 * rng.normal(size=(3, 3))
    cluster = np.arange(n) % 3
    h = Tensor(centres[cluster] + 0.1 * rng.normal(size=(n, 3)), requires_grad=True, name="h")
    # theta splits the widest distance inside a cluster and the narrowest
    # between two, so no entry sits near 0.5 and the loss is smooth
    d = pairwise_distances(params.mlp.forward(h).data)
    same = cluster[:, None] == cluster[None, :]
    off_diagonal = ~np.eye(n, dtype=bool)
    params.theta.data = np.asarray(
        0.5 * (d[same & off_diagonal].max() + d[~same].min()) * params.temperature)
    a_p = params.forward(h).a_p.data[off_diagonal]
    assert np.all(np.abs(a_p - 0.5) > 1e-3)
    assert 0 < np.count_nonzero(a_p > 0.5) < a_p.size
    target = TargetDistribution.for_support(n)
    labels = rng.integers(0, 2, size=n)

    def f(_):
        a = params.forward(h).a_p
        _, logits = classifier.forward(h, a)
        kl, _ = degree_loss(a, target)
        return total_loss(cross_entropy(logits, labels), kl, alpha=1.0)

    tensors = ([h, params.t_raw, params.theta] + params.mlp.parameters()
               + classifier.parameters() + target.parameters())
    for tensor in tensors:
        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{tensor.name}: {err}"


def spread_degree_matrix(rng, n):
    """Zero-diagonal matrix whose row degrees span 0..n-1: near-empty rows,
    near-full ones and random ones, every entry >= 1e-3 from 0.5."""
    a = rng.random((n, n))
    a[:4] *= 0.4  # degree 0
    a[3, 0] = 0.8  # degree 0.8
    a[4:7] = 0.9995 - 0.002 * rng.random((3, n))  # degree above n - 2
    a[7:12] = 0.5 + 0.5 * a[7:12]  # every entry survives
    a[np.abs(a - 0.5) < 1e-3] += 2e-3
    np.fill_diagonal(a, 0.0)
    return a


def test_windowed_histogram_matches_dense_oracle():
    n = 128  # past the window's width, so its clipping runs at both ends
    assert n > 2 * ASSIGN_REACH + 1
    a = spread_degree_matrix(np.random.default_rng(7), n)
    degrees = np.where(a > 0.5, a, 0.0).sum(axis=1)
    assert degrees.min() == 0.0 and degrees[3] < 1.0 and degrees.max() > n - 2
    target = TargetDistribution.for_support(n)
    kl, p = degree_loss(Tensor(a), target)
    np.testing.assert_allclose(p.data, histogram_oracle(degrees, n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(kl.item(), kl_oracle(degrees, target, n), rtol=0, atol=1e-12)


def blocked_degrees(a, monkeypatch):
    """The degrees degree_histogram sums block by block from ``a``, as its
    finiteness check sees them."""
    seen = []
    isfinite = np.isfinite

    def spy(x):
        seen.append(np.array(x))
        return isfinite(x)

    with monkeypatch.context() as patch:
        patch.setattr(np, "isfinite", spy)
        try:
            degree_histogram(Tensor(a))
        except ValueError:
            pass
    return seen[0]


def test_blocked_degrees_equal_whole_row_sums(monkeypatch):
    # the last block is ragged; a NaN entry in it reaches its own row only
    a = random_population_matrix(np.random.default_rng(20), 2 * ROW_BLOCK + 5)
    expected = (a * (a > 0.5)).sum(axis=1)
    np.testing.assert_array_equal(blocked_degrees(a, monkeypatch), expected)
    a[-1, 3] = np.nan
    degrees = blocked_degrees(a, monkeypatch)
    assert np.isnan(degrees[-1]) and np.count_nonzero(np.isnan(degrees)) == 1


def test_degree_loss_on_edge_weights_matches_column_sums():
    # f2's weights are exactly symmetric, so their row degrees are their
    # column degrees up to summation order
    n = 2 * ROW_BLOCK + 5
    rng = np.random.default_rng(28)
    z = Tensor(rng.normal(size=(n, 3)))
    d = pairwise_distances(z.data)[~np.eye(n, dtype=bool)]
    a = logistic_edge_weights(z, Tensor(0.0), Tensor(float(np.median(d))))
    degrees = np.where(a.data > 0.5, a.data, 0.0).sum(axis=0)
    assert 0 < np.count_nonzero(a.data > 0.5) < n * (n - 1)
    target = TargetDistribution.for_support(n)
    kl, p = degree_loss(a, target)
    np.testing.assert_allclose(p.data, histogram_oracle(degrees, n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(kl.item(), kl_oracle(degrees, target, n), rtol=0, atol=1e-12)


def test_degree_histogram_gradient_check():
    rng = np.random.default_rng(8)
    a = Tensor(spread_degree_matrix(rng, 40), requires_grad=True)
    weights = Tensor(rng.normal(size=40))
    err = finite_difference_check(lambda t: (degree_histogram(t) * weights).sum(), a)
    assert err < 1e-6


@pytest.mark.parametrize("entry", [(0, 1), (2, 2)])
def test_nan_in_adjacency_raises(entry):
    a = random_population_matrix(np.random.default_rng(9), 5)
    a[entry] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        degree_loss(Tensor(a), TargetDistribution.for_support(5))


@pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 2, 2)], ids=["vector", "wide", "three_axes"])
def test_degree_histogram_rejects_an_adjacency_that_is_not_square(shape):
    with pytest.raises(ShapeError, match=re.escape(f"not shape {shape}")):
        degree_histogram(Tensor(np.full(shape, 0.9)))


def test_degree_histogram_rejects_the_empty_population():
    with pytest.raises(ValueError, match="the population is empty"):
        degree_histogram(Tensor(np.zeros((0, 0))))
    np.testing.assert_array_equal(degree_histogram(Tensor(np.zeros((1, 1)))).data, [1.0])
