"""Node-degree-distribution loss (NDDL) on the learned population graph.

``degree_loss`` runs the whole chain in one function. It thresholds the
weighted adjacency strictly above 0.5 (the mask is a constant, so gradients
flow only through the surviving entries) and sums each column into a soft
node degree, a (1, N) row. Against a constant (N, 1) column of integer bins
0..N-1 a Gaussian kernel scores every (bin, node) pair, a softmax over the
bins turns each node's column into a soft assignment, and the row mean over
nodes is the degree histogram ``p``. The loss is D_KL(p || q) to a learnable
discrete Gaussian target q. Adding it (weighted by alpha) to the
cross-entropy keeps the classifier loss intact while pressuring node degrees
toward the target mean.
"""

import numpy as np

from .tensor import Tensor, exp, log, log_softmax, softmax

ASSIGN_SIGMA = 0.6  # smoothing width of the degree soft assignment
KL_EPSILON = 1e-12  # guards log of exact-zero empirical mass


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


def kl_divergence(p: Tensor, log_q: Tensor) -> Tensor:
    """D_KL(p || q) for a distribution ``p`` and the log ``log_q`` of ``q``."""
    return (p * (log(p + KL_EPSILON) - log_q)).sum()


def total_loss(ce: Tensor, kl: Tensor, alpha: float) -> Tensor:
    """Classification loss plus the degree penalty; alpha = 0 disables it."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0:
        return ce
    return ce + kl * alpha


def degree_loss(a_p: Tensor, target: TargetDistribution):
    """NDDL of an N x N weighted adjacency: returns (kl, p).

    ``p`` is the length-N histogram of soft node degrees over bins 0..N-1.
    """
    n = a_p.shape[0]
    degrees = (a_p * Tensor(a_p.data > 0.5)).sum(axis=0, keepdims=True)  # (1, N)
    bins = Tensor(np.arange(n, dtype=np.float64)[:, None])  # (N, 1)
    diff = bins - degrees  # bins x nodes
    assignment = softmax((diff * diff) * (-1.0 / (ASSIGN_SIGMA * ASSIGN_SIGMA)), axis=0)
    p = assignment.sum(axis=1) * (1.0 / n)
    return kl_divergence(p, target.log_distribution(n)), p
