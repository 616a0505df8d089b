"""Node-degree-distribution loss (NDDL) on the learned population graph.

``degree_loss`` thresholds the weighted adjacency strictly above 0.5 (the
mask is a constant, so gradients flow only through the surviving entries)
and sums each row into a soft node degree. A Gaussian kernel scores each
node's degree against the integer bins 0..N-1, a softmax over the bins turns
the scores into the node's soft assignment, and the mean over nodes is the
degree histogram ``p``. The loss is D_KL(p || q) to a learnable discrete
Gaussian target q. Adding it (weighted by alpha) to the cross-entropy keeps
the classifier loss intact while pressuring node degrees toward the target
mean.

``degree_histogram`` runs the chain from the adjacency to ``p`` as one
autograd op. A bin ``ASSIGN_REACH`` or more away from a node's degree gets
an assignment of exactly 0.0 in float64, so each node scores only the
2 * ASSIGN_REACH + 1 bins around its degree, clipped to 0..N-1. The degrees
are summed over blocks of ``latent_graph.ROW_BLOCK`` adjacency rows, one pass
with no N x N temporary and no mask kept; the rest of the forward and the
backward are O(N * window). The adjacency's gradient, [a > 0.5] g 1^T for the
degrees' gradient g, is sent as its threshold and g (``tensor.FactoredGrad``),
not as an N x N array.
"""

import math

import numpy as np

from .data import check_integer, check_real
from .latent_graph import ROW_BLOCK, row_blocks
from .tensor import (FactoredGrad, ShapeError, Tensor, _accumulate, _record, check_tensor, exp,
                     log, log_softmax)

ASSIGN_SIGMA = 0.6  # smoothing width of the degree soft assignment
# exp(x) is exactly 0.0 in float64 for x <= -745.14. The bin nearest a degree
# scores at least -0.25 / sigma^2, so after the softmax's max shift a bin r
# away scores at most -(r^2 - 0.25) / sigma^2, below -746 once r >= reach.
ASSIGN_REACH = math.ceil(math.sqrt(ASSIGN_SIGMA * ASSIGN_SIGMA * 746.0 + 0.25))
KL_EPSILON = 1e-12  # guards log of exact-zero empirical mass
EDGE_THRESHOLD = 0.5  # an entry counts towards a degree when strictly above it


class TargetDistribution:
    """Discrete Gaussian over integer degrees with learnable mean and width.

    ``mu`` and ``sigma`` are finite real numbers, not bools, and ``sigma``
    is positive; a support size ``n`` is a positive integer. The
    width is stored as a log so it stays positive; densities are evaluated at
    the integer support 0..N-1 and renormalized, so the target is always a
    proper distribution under truncation.
    """

    def __init__(self, mu: float, sigma: float):
        check_real("mu", mu)
        check_real("sigma", sigma)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = Tensor(float(mu), requires_grad=True, name="target.mu")
        self.sigma_raw = Tensor(np.log(float(sigma)), requires_grad=True, name="target.sigma_raw")

    @classmethod
    def for_support(cls, n: int) -> "TargetDistribution":
        """The starting target over degrees 0..n-1."""
        check_integer("n", n, 1)
        # start below half density: sparse graphs with room for dense nodes
        return cls(mu=n / 4.0, sigma=n / 8.0)

    @property
    def sigma(self) -> float:
        return float(np.exp(self.sigma_raw.data))

    def log_distribution(self, n: int) -> Tensor:
        """The log of the target over degrees 0..n-1."""
        check_integer("n", n, 1)
        bins = Tensor(np.arange(n, dtype=np.float64))
        centered = bins - self.mu
        inv_two_var = exp(self.sigma_raw * -2.0) * 0.5
        return log_softmax((centered * centered) * -1.0 * inv_two_var)

    def parameters(self):
        return [self.mu, self.sigma_raw]


def kl_divergence(p: Tensor, log_q: Tensor) -> Tensor:
    """D_KL(p || q) for a distribution ``p`` and the log ``log_q`` of ``q``."""
    return (p * (log(p + KL_EPSILON) - log_q)).sum()


def total_loss(ce: Tensor, kl: Tensor, alpha: float) -> Tensor:
    """Classification loss plus the degree penalty; alpha, a finite real
    number of at least 0, weights it, and alpha = 0 disables it."""
    check_real("alpha", alpha, 0)
    if alpha == 0:
        return ce
    return ce + kl * alpha


def degree_histogram(a_p: Tensor) -> Tensor:
    """Histogram of the soft node degrees of an N x N adjacency over bins 0..N-1.

    The degree of node i sums row i of ``a_p`` over its entries strictly
    above 0.5. Raises ``ShapeError`` naming the shape of an ``a_p`` that is not
    a square matrix, ``ValueError`` when ``a_p`` is empty or holds a NaN or an
    infinity, and ``TypeError`` when it is not a Tensor.
    """
    check_tensor("a_p", a_p)
    if a_p.ndim != 2 or a_p.shape[0] != a_p.shape[1]:
        raise ShapeError(f"degree_histogram needs a square adjacency, not shape {a_p.shape}")
    n = a_p.shape[0]
    if n == 0:
        raise ValueError("degree_histogram: the population is empty (a 0 x 0 adjacency)")
    # one block of rows at a time, masked into a buffer and summed: rows
    # reduce independently, so the result is (a * (a > 0.5)).sum(axis=1) bit
    # for bit, and a NaN reaches its own degree, as 0 * NaN is NaN
    a = a_p.data
    degrees = np.empty(n)
    buf = np.empty((min(n, ROW_BLOCK), n))
    for r0, r1 in row_blocks(n):
        block = buf[:r1 - r0]
        np.greater(a[r0:r1], EDGE_THRESHOLD, out=block)
        block *= a[r0:r1]
        block.sum(axis=1, out=degrees[r0:r1])
    if not np.all(np.isfinite(degrees)):
        raise ValueError("degree_histogram: a_p contains non-finite values")
    # each node's window: the bins within ASSIGN_REACH of its degree
    nearest = np.clip(np.floor(degrees), 0, n - 1).astype(np.intp)
    bins = nearest[:, None] + np.arange(-ASSIGN_REACH, ASSIGN_REACH + 1)
    inside = (bins >= 0) & (bins < n)
    diff = bins - degrees[:, None]  # nodes x window
    scores = (diff * diff) * (-1.0 / (ASSIGN_SIGMA * ASSIGN_SIGMA))
    scores[~inside] = -np.inf
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)  # 0 on bins outside 0..N-1
    np.clip(bins, 0, n - 1, out=bins)  # a clipped bin carries y = 0 and adds nothing
    p = np.bincount(bins.ravel(), weights=y.ravel(), minlength=n) * (1.0 / n)

    def backward(g):
        gy = g[bins] * (1.0 / n)
        gs = (gy - (gy * y).sum(axis=1, keepdims=True)) * y
        g_degrees = (gs * diff).sum(axis=1) * (2.0 / (ASSIGN_SIGMA * ASSIGN_SIGMA))
        _accumulate(a_p, FactoredGrad(masked=[(EDGE_THRESHOLD, g_degrees)]))

    return _record(p, (a_p,), backward)


def degree_loss(a_p: Tensor, target: TargetDistribution):
    """NDDL of an N x N weighted adjacency: returns (kl, p).

    ``p`` is the length-N histogram of soft node degrees over bins 0..N-1.
    """
    p = degree_histogram(a_p)
    return kl_divergence(p, target.log_distribution(a_p.shape[0])), p
