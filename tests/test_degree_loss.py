import math

import numpy as np

from popgraph.degree_loss import (
    ASSIGN_SIGMA,
    KL_EPSILON,
    TargetDistribution,
    degree_loss,
    kl_divergence,
    total_loss,
)
from popgraph.latent_graph import LatentGraphParams
from popgraph.tensor import Tensor, exp, finite_difference_check, log


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
    # a surviving a_ij moves only the degree of node j
    degrees = (a.data * survives).sum(axis=0)
    step = 1e-6
    d_kl = np.array([
        (kl_oracle(degrees + step * e, target, 3) - kl_oracle(degrees - step * e, target, 3))
        / (2.0 * step)
        for e in np.eye(3)
    ])
    np.testing.assert_allclose(a.grad[survives], np.broadcast_to(d_kl, (3, 3))[survives],
                               rtol=1e-6)
    assert np.all(a.grad[survives] != 0.0)


def test_node_degrees_arithmetic():
    a = np.full((4, 4), 0.9)
    np.fill_diagonal(a, 0.0)
    np.testing.assert_allclose(histogram(a), histogram_oracle(np.full(4, 2.7), 4), atol=1e-12)
    np.testing.assert_allclose(histogram(np.zeros((3, 3))), histogram_oracle(np.zeros(3), 3),
                               atol=1e-12)


def test_node_degrees_match_independent_row_sums():
    rng = np.random.default_rng(0)
    a = rng.random((7, 7))  # not symmetric: the degree of node j sums column j
    np.fill_diagonal(a, 0.0)
    a_bar = a * (a > 0.5)
    oracle = np.array([sum(a_bar[i][j] for i in range(7)) for j in range(7)])
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
    p = histogram([[0.0, 1.0], [0.0, 0.0]])  # degrees 0 and 1
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


def test_total_loss_reduces_to_ce_at_zero_alpha():
    ce = Tensor(0.7, requires_grad=True)
    kl = Tensor(0.3, requires_grad=True)
    assert total_loss(ce, kl, 0.0) is ce
    np.testing.assert_allclose(total_loss(ce, kl, 1.0).item(), 1.0)


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
        degrees = np.where(a > 0.5, a, 0.0).sum(axis=0)
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
    # init_threshold puts the median pair exactly at 0.5; step off it so that
    # no entry sits near the threshold, finite-difference steps leave the mask
    # unchanged and the loss is smooth in every parameter
    params.theta.data += 0.02
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
