"""Per-graph message passing plus global pooling: one vector per input graph.

Each layer is a :class:`~popgraph.nn.GraphConv` over the batch's
block-diagonal sparse adjacency,
x'_i = relu(W_self x_i + W_neigh (sum_{j in N(i)} x_j) + b), so no message
crosses from one input graph to another. The first layer's neighbour sums
are a constant of the batch, ``GraphBatch.aggregated_features``, built once
with the batch and reused by every forward pass. Pooling (mean or add) then
collapses each graph's node rows to a single representation with one sparse
product, so downstream modules see one row per sample.
"""

from dataclasses import dataclass

import numpy as np

from .data import GraphBatch
from .nn import GraphConv
from .tensor import Tensor, matmul


POOLING_MODES = ("mean", "add")


@dataclass
class NodeLevelConfig:
    layer_dims: list  # the last entry is the width of the pooled output
    pooling: str = "mean"

    def __post_init__(self):
        if not self.layer_dims:
            raise ValueError("layer_dims must be non-empty")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}")


def global_pool(batch: GraphBatch, node_features: Tensor, mode: str) -> Tensor:
    """Reduce node rows to one row per graph: sum, or mean for ``"mean"``."""
    if mode not in POOLING_MODES:
        raise ValueError(f"pooling must be one of {POOLING_MODES}")
    pool = batch.mean_pool if mode == "mean" else batch.membership
    return matmul(pool, node_features)


class NodeLevelModule:
    """Stack of graph convolutions with relu, followed by global pooling."""

    def __init__(self, config: NodeLevelConfig, input_dim: int, rng: np.random.Generator):
        self.config = config
        dims = [input_dim] + list(config.layer_dims)
        self.layers = [
            GraphConv(dims[i], dims[i + 1], rng, name=f"f1.conv{i}")
            for i in range(len(dims) - 1)
        ]

    def forward(self, batch: GraphBatch) -> Tensor:
        first, *rest = self.layers
        x = first.forward(batch.features, batch.adjacency, ax=batch.aggregated_features)
        for layer in rest:
            x = layer.forward(x, batch.adjacency)
        return global_pool(batch, x, self.config.pooling)

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]
