import math

import numpy as np

from popgraph.degree_loss import (
    ASSIGN_SIGMA,
    TargetDistribution,
    degree_distribution,
    degree_loss,
    kl_divergence,
    node_degrees,
    soft_assign,
    threshold_adjacency,
    total_loss,
)
from popgraph.latent_graph import LatentGraphParams
from popgraph.tensor import Tensor, exp, finite_difference_check, greater


def random_population_matrix(rng, n):
    """Symmetric zero-diagonal matrix of (0,1) weights, like a learned A_p."""
    raw = rng.random((n, n))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return sym


def test_threshold_keeps_values_above_half():
    a = Tensor([[0.0, 0.9], [0.9, 0.0]])
    np.testing.assert_array_equal(threshold_adjacency(a).data, a.data)


def test_threshold_zeroes_values_below_half():
    a = Tensor([[0.0, 0.3], [0.3, 0.0]])
    np.testing.assert_array_equal(threshold_adjacency(a).data, np.zeros((2, 2)))


def test_threshold_boundary_is_strict():
    a = Tensor([[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_array_equal(threshold_adjacency(a).data, np.zeros((2, 2)))


def test_gradient_only_through_surviving_entries():
    a = Tensor([[0.0, 0.9, 0.3], [0.9, 0.0, 0.3], [0.3, 0.3, 0.0]], requires_grad=True)
    threshold_adjacency(a).sum().backward()
    expected = (a.data > 0.5).astype(float)
    np.testing.assert_array_equal(a.grad, expected)


def test_node_degrees_arithmetic():
    a = np.full((4, 4), 0.9)
    np.fill_diagonal(a, 0.0)
    np.testing.assert_allclose(node_degrees(Tensor(a)).data, np.full(4, 2.7))
    np.testing.assert_array_equal(node_degrees(Tensor(np.zeros((3, 3)))).data, np.zeros(3))


def test_node_degrees_match_independent_row_sums():
    rng = np.random.default_rng(0)
    a = random_population_matrix(rng, 7)
    a_bar = a * (a > 0.5)
    oracle = np.array([sum(a_bar[i][j] for i in range(7)) for j in range(7)])
    np.testing.assert_allclose(node_degrees(Tensor(a_bar)).data, oracle, atol=1e-10)


def test_soft_assign_integer_degree_neighbor_weight():
    degrees = Tensor(np.array([3.0]))
    s = soft_assign(degrees, 8, ASSIGN_SIGMA).data[:, 0]
    assert np.argmax(s) == 3
    expected_ratio = math.exp(-1.0 / 0.36)
    np.testing.assert_allclose(s[2] / s[3], expected_ratio, atol=1e-6)
    np.testing.assert_allclose(s[4] / s[3], expected_ratio, atol=1e-6)


def test_soft_assign_halfway_degree_splits_evenly():
    s = soft_assign(Tensor(np.array([2.5])), 6, ASSIGN_SIGMA).data[:, 0]
    np.testing.assert_allclose(s[2], s[3], atol=1e-12)


def test_soft_assign_sharpens_to_one_hot():
    s = soft_assign(Tensor(np.array([4.0, 1.0])), 8, sigma=0.05).data
    assert s[4, 0] > 0.999 and s[1, 1] > 0.999


def test_soft_assign_columns_are_distributions():
    rng = np.random.default_rng(1)
    degrees = Tensor(rng.uniform(0, 9, size=10))
    s = soft_assign(degrees, 10).data
    np.testing.assert_allclose(s.sum(axis=0), np.ones(10), atol=1e-10)


def test_degree_distribution_concentrates_at_common_degree():
    s = soft_assign(Tensor(np.full(6, 3.0)), 9)
    p = degree_distribution(s).data
    assert np.argmax(p) == 3
    assert p[3] > 0.88  # sigma=0.6 leaks < 0.12 onto neighbors


def test_degree_distribution_two_nodes():
    s = soft_assign(Tensor(np.array([0.0, 1.0])), 2)
    np.testing.assert_allclose(degree_distribution(s).data, [0.5, 0.5], atol=1e-12)


def test_degree_distribution_sums_to_one():
    rng = np.random.default_rng(2)
    s = soft_assign(Tensor(rng.uniform(0, 5, size=6)), 6)
    assert abs(degree_distribution(s).data.sum() - 1.0) < 1e-10


def test_kl_identical_distributions_is_zero():
    p = Tensor(np.array([0.2, 0.3, 0.5]))
    assert abs(kl_divergence(p, Tensor(p.data.copy())).item()) < 1e-9


def test_kl_analytic_value():
    p = Tensor(np.array([1.0, 0.0]))
    q = Tensor(np.array([0.5, 0.5]))
    np.testing.assert_allclose(kl_divergence(p, q).item(), math.log(2.0), atol=1e-9)


def test_kl_matches_direct_summation_oracle():
    rng = np.random.default_rng(3)
    raw = rng.random(12)
    p = raw / raw.sum()
    target = TargetDistribution.for_support(12)
    q = exp(target.log_distribution(12)).data
    oracle = sum(p[i] * math.log((p[i] + 1e-12) / q[i]) for i in range(12))
    np.testing.assert_allclose(kl_divergence(Tensor(p), target).item(), oracle, atol=1e-10)


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
        kl = kl_divergence(p, target)
        loss = total_loss(Tensor(0.5), kl, alpha)
        loss.backward()
        grads.append(target.mu.grad.copy())
    np.testing.assert_allclose(grads[1], grads[0] * 2.5, rtol=1e-9)


def test_state_invariants_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 33))
        a_p = Tensor(random_population_matrix(rng, n))
        target = TargetDistribution.for_support(n)
        kl, state = degree_loss(a_p, target)
        np.testing.assert_allclose(state.assignment.data.sum(axis=0), np.ones(n), atol=1e-10)
        np.testing.assert_allclose(state.distribution.data.sum(), 1.0, atol=1e-10)
        deg = state.degrees.data
        assert np.all(deg >= 0) and np.all(deg <= n - 1)
        assert kl.item() >= -1e-9


def test_end_to_end_gradient_check_with_frozen_mask():
    rng = np.random.default_rng(6)
    params = LatentGraphParams([3, 2], rng)
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    params.init_threshold(h)
    target = TargetDistribution.for_support(6)
    frozen = greater(params.forward(h).a_p, 0.5)

    def f(_):
        pop = params.forward(h)
        kl, _ = degree_loss(pop.a_p, target, mask=frozen)
        return total_loss(Tensor(0.0), kl, alpha=1.0)

    for tensor in [h, params.t_raw, params.theta, target.mu, target.sigma_raw] + params.mlp.parameters():
        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{tensor.name}: {err}"
