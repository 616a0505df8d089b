"""Degree-distribution regularizer for the learned population graph.

Pipeline: threshold the weighted adjacency at 0.5 (mask is constant w.r.t.
gradients), sum surviving weights into soft node degrees, spread each degree
over integer bins with a Gaussian kernel, normalize into an empirical
distribution, and penalize its KL divergence from a learnable discrete
Gaussian target. Adding the penalty (weighted by alpha) to the cross-entropy
keeps the classifier loss intact while pressuring node degrees toward the
target mean.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    exp,
    greater,
    log,
    log_softmax,
    reshape,
    softmax,
    transpose,
)

ASSIGN_SIGMA = 0.6  # smoothing width of the degree soft assignment
KL_EPSILON = 1e-12  # guards log of exact-zero empirical mass


@dataclass
class DegreeLossState:
    """Intermediate tensors of one degree-loss evaluation."""

    a_bar: Tensor
    degrees: Tensor
    assignment: Tensor  # n_bins x N, columns sum to 1
    distribution: Tensor  # length n_bins


class TargetDistribution:
    """Discrete Gaussian over integer degrees with learnable mean and width.

    The width is stored as a log so it stays positive; densities are
    evaluated at the integer support 0..N-1 and renormalized, so the target
    is always a proper distribution under truncation.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = Tensor(float(mu), requires_grad=True, name="target.mu")
        self.sigma_raw = Tensor(np.log(float(sigma)), requires_grad=True, name="target.sigma_raw")

    @classmethod
    def for_support(cls, n: int) -> "TargetDistribution":
        # start below half density: sparse graphs with room for dense nodes
        return cls(mu=n / 4.0, sigma=n / 8.0)

    @property
    def sigma(self) -> float:
        return float(np.exp(self.sigma_raw.data))

    def log_distribution(self, n: int) -> Tensor:
        bins = Tensor(np.arange(n, dtype=np.float64))
        centered = bins - self.mu
        inv_two_var = exp(self.sigma_raw * -2.0) * 0.5
        return log_softmax((centered * centered) * -1.0 * inv_two_var, axis=-1)

    def parameters(self):
        return [self.mu, self.sigma_raw]


def threshold_adjacency(a_p: Tensor, mask: Tensor = None) -> Tensor:
    """Zero out entries not strictly above 0.5; the mask carries no gradient."""
    if mask is None:
        mask = greater(a_p, 0.5)
    return a_p * mask


def node_degrees(a_bar: Tensor) -> Tensor:
    """Soft degree of node j: sum of column j of the thresholded adjacency."""
    return a_bar.sum(axis=0)


def soft_assign(degrees: Tensor, n: int, sigma: float = ASSIGN_SIGMA) -> Tensor:
    """Spread each soft degree over integer bins 0..n-1 with a Gaussian kernel.

    Returns an n_bins x N matrix whose columns are distributions; the argmax
    bin of column j is the integer nearest degrees[j].
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    bins = Tensor(np.arange(n, dtype=np.float64)[None, :])
    d_col = reshape(degrees, (degrees.size, 1))
    diff = bins - d_col
    scores = (diff * diff) * (-1.0 / (sigma * sigma))
    return transpose(softmax(scores, axis=1))


def degree_distribution(assignment: Tensor) -> Tensor:
    """Normalize the soft assignment into a distribution over degree bins."""
    n = assignment.shape[1]
    return assignment.sum(axis=1) * (1.0 / n)


def kl_divergence(p: Tensor, q) -> Tensor:
    """D_KL(p || q); q may be a TargetDistribution or a distribution Tensor."""
    if isinstance(q, TargetDistribution):
        log_q = q.log_distribution(p.size)
    else:
        log_q = log(q)
    return (p * (log(p + KL_EPSILON) - log_q)).sum()


def total_loss(ce: Tensor, kl: Tensor, alpha: float) -> Tensor:
    """Classification loss plus the degree penalty; alpha = 0 disables it."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0:
        return ce
    return ce + kl * alpha


def degree_loss(a_p: Tensor, target: TargetDistribution, mask: Tensor = None):
    """Full Eq-chain evaluation: returns (kl, DegreeLossState)."""
    a_bar = threshold_adjacency(a_p, mask=mask)
    degrees = node_degrees(a_bar)
    n = a_p.shape[0]
    assignment = soft_assign(degrees, n)
    p = degree_distribution(assignment)
    kl = kl_divergence(p, target)
    return kl, DegreeLossState(
        a_bar=a_bar, degrees=degrees, assignment=assignment, distribution=p,
    )
