"""Learned population graph: MLP embedding plus logistic distance weighting.

Edge weights are a_ij = sigmoid(theta - t * ||hhat_i - hhat_j||), so close
pairs in the embedding space get weights near 1 and distant pairs near 0.
The temperature t is kept positive by storing its log; the diagonal is
forced to zero so self-loops never enter degree statistics or message
passing.
"""

from dataclasses import dataclass

import numpy as np

from .nn import MLP
from .tensor import Tensor, exp, pairwise_euclidean, sigmoid


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
        n = embedded.shape[0]
        dist = pairwise_euclidean(embedded)
        logits = self.theta - exp(self.t_raw) * dist
        off_diagonal = Tensor(1.0 - np.eye(n))
        return PopulationGraph(a_p=sigmoid(logits) * off_diagonal, embedding=embedded)

    def forward(self, h: Tensor) -> PopulationGraph:
        return self.edge_weights(self.embed(h))

    def init_threshold(self, h: Tensor) -> None:
        """Center theta on the median pairwise distance of an initial batch.

        Starts the population graph near half density so gradients flow
        toward both sparser and denser structures.
        """
        embedded = self.embed(h)
        dist = pairwise_euclidean(embedded).data
        n = dist.shape[0]
        if n < 2:
            return
        off = dist[~np.eye(n, dtype=bool)]
        self.theta.data = np.asarray(float(np.median(off)) * self.temperature)

    def parameters(self):
        return self.mlp.parameters() + [self.t_raw, self.theta]

