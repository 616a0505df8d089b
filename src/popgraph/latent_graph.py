"""Learned population graph: MLP embedding plus logistic distance weighting.

Edge weights are a_ij = sigmoid(theta - t * ||hhat_i - hhat_j||), so close
pairs in the embedding space get weights near 1 and distant pairs near 0.
The temperature t is kept positive by storing its log; the diagonal is
forced to zero so self-loops never enter degree statistics or message
passing.

``logistic_edge_weights`` computes the whole N x N chain as one autograd op:
its forward takes the distances from ``pairwise_distances``, which
``init_threshold`` shares, and its hand-derived backward gives the gradients
of the embedding, ``t_raw`` and ``theta``. The tape holds the weights and,
inside the rule, the distances: no logit, scaled-distance or mask array.

The sigmoid is evaluated in place as a_ij = 1 / (1 + exp(t * d_ij - theta)),
with numpy's vectorised ``exp``. A pair far enough apart that the ``exp``
overflows gets exactly 0.0; a logit of 0 still gives exactly 0.5, and a NaN
still propagates. ``scipy.special.expit`` is not used: it is a scalar loop
per element, 11.5-16 ms on a 1024 x 1024 array against 3.3-3.9 ms for the
``exp`` and two in-place passes (one thread, 2-vCPU x86 host).
"""

from dataclasses import dataclass

import numpy as np

from .nn import MLP
from .tensor import ShapeError, Tensor, _accumulate, _record


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance matrix of a 2-D array.

    Uses the expanded form with squared distances clamped at 0 before the
    square root. The result is exactly symmetric with an exactly-zero
    diagonal: numpy forms the product of a matrix with its own transpose as
    one triangle (BLAS syrk) and mirrors it, so the Gram matrix is exactly
    symmetric, and so is every elementwise step after it.
    """
    x = np.ascontiguousarray(x)
    gram = x @ x.T
    sq_norms = np.diag(gram).copy()
    sq = sq_norms[:, None] + sq_norms[None, :]
    gram *= 2.0
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq, out=sq)


def logistic_edge_weights(z: Tensor, t_raw: Tensor, theta: Tensor) -> Tensor:
    """a_ij = sigmoid(theta - exp(t_raw) * ||z_i - z_j||) off the diagonal, 0 on it.

    The sigmoid is computed as 1 / (1 + exp(t * d_ij - theta)) in the op's one
    N x N buffer, not with the scalar ``scipy.special.expit`` loop, which took
    about three times as long at N = 1024. Where t * d_ij - theta exceeds
    ~709.78 the ``exp`` overflows to inf and the weight is exactly 0.0, as
    ``expit`` gives there; the overflow raises no warning. Elsewhere the two
    differ by less than 1e-15 relative wherever ``expit`` is at least 1e-300.

    The subgradient of a distance at exactly zero is 0, so duplicate rows and
    the diagonal never produce NaN gradients.
    """
    if z.data.ndim != 2:
        raise ShapeError(f"edge weights expect a 2-D embedding, got {z.data.shape}")
    x = z.data
    dist = pairwise_distances(x)
    t = float(np.exp(t_raw.data))
    a = dist * t
    a -= theta.data
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)
    np.fill_diagonal(a, 0.0)

    def backward(g):
        # d loss / d logit; a_ii = 0, so the diagonal drops out
        s = 1.0 - a
        s *= a
        s *= g
        _accumulate(theta, s.sum())
        _accumulate(t_raw, -t * np.vdot(s, dist))
        if z.requires_grad:
            # d loss / d z_i = -t * sum_j (s_ij + s_ji) (z_i - z_j) / d_ij,
            # with the transposed half as a transposed product, not an N x N copy
            with np.errstate(divide="ignore", invalid="ignore"):
                s /= dist
            s[dist == 0.0] = 0.0
            grad = (s.sum(axis=1) + s.sum(axis=0))[:, None] * x - s @ x - s.T @ x
            _accumulate(z, grad * -t)

    return _record(a, (z, t_raw, theta), backward)


@dataclass
class PopulationGraph:
    """Weighted adjacency over the current batch plus its embedding."""

    a_p: Tensor
    embedding: Tensor


class LatentGraphParams:
    """MLP embedding ``g`` and the learnable (t, theta) pair."""

    def __init__(self, dims, rng: np.random.Generator):
        self.mlp = MLP(dims, rng, name="g")
        self.t_raw = Tensor(0.0, requires_grad=True, name="t_raw")  # t = exp(t_raw) = 1
        self.theta = Tensor(1.0, requires_grad=True, name="theta")

    @property
    def temperature(self) -> float:
        return float(np.exp(self.t_raw.data))

    def embed(self, h: Tensor) -> Tensor:
        return self.mlp.forward(h)

    def edge_weights(self, embedded: Tensor) -> PopulationGraph:
        a_p = logistic_edge_weights(embedded, self.t_raw, self.theta)
        return PopulationGraph(a_p=a_p, embedding=embedded)

    def forward(self, h: Tensor) -> PopulationGraph:
        return self.edge_weights(self.embed(h))

    def init_threshold(self, h: Tensor) -> None:
        """Center theta on the median pairwise distance of an initial batch.

        Starts the population graph near half density so gradients flow
        toward both sparser and denser structures. The median is over the
        n(n-1)/2 distinct pairs. When their count is odd the median is itself
        a distance, whose pair would get a_ij = 0.5 exactly, on NDDL's strict
        threshold; theta then takes the midpoint of that distance and the next.

        Raises ``ValueError`` for a batch of two: its single pair has no next
        distance, so theta would put it at a_ij = 0.5 exactly, whatever its
        distance. A batch of fewer than two has no pair and leaves theta as is.
        """
        n = h.shape[0]
        if n < 2:
            return
        if n == 2:
            raise ValueError("init_threshold needs at least 3 rows: the single pair of 2 "
                             "would sit at a_ij = 0.5, on NDDL's strict threshold")
        dist = pairwise_distances(self.embed(h).data)
        pairs = np.concatenate([row[i + 1:] for i, row in enumerate(dist)])
        k = pairs.size // 2
        lo, hi = (k - 1, k) if pairs.size % 2 == 0 else (k, k + 1)
        part = np.partition(pairs, (lo, hi))
        median = 0.5 * (part[lo] + part[hi])
        self.theta.data = np.asarray(float(median) * self.temperature)

    def parameters(self):
        return self.mlp.parameters() + [self.t_raw, self.theta]
