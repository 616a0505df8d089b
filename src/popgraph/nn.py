"""Small parameter containers shared by the model modules."""

import numpy as np

from .tensor import ShapeError, Tensor, matmul, relu


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """y = x @ W + b with uniform +-1/sqrt(fan_in) initialization."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name=""):
        self.weight = Tensor(uniform_init(rng, (d_in, d_out), d_in), requires_grad=True,
                             name=f"{name}.weight")
        self.bias = Tensor(uniform_init(rng, (d_out,), d_in), requires_grad=True,
                           name=f"{name}.bias")

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def parameters(self):
        return [self.weight, self.bias]


class MLP:
    """Stacked Linear layers with relu between layers (none after the last)."""

    def __init__(self, dims, rng: np.random.Generator, name=""):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.layers = [
            Linear(dims[i], dims[i + 1], rng, name=f"{name}.{i}")
            for i in range(len(dims) - 1)
        ]

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            if i + 1 < len(self.layers):
                x = relu(x)
        return x

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


class GraphConv:
    """x' = x @ W_self + A @ (x @ W_neigh) + b, one layer of message passing.

    ``adj`` is the n x n adjacency of the graph whose n nodes are the rows of
    ``x``: a constant scipy.sparse matrix for the block-diagonal batch of
    input graphs, or a dense Tensor (learned or fixed) for the population.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name="conv"):
        self.w_self = Tensor(uniform_init(rng, (d_in, d_out), d_in), requires_grad=True,
                             name=f"{name}.w_self")
        self.w_neigh = Tensor(uniform_init(rng, (d_in, d_out), d_in), requires_grad=True,
                              name=f"{name}.w_neigh")
        self.bias = Tensor(uniform_init(rng, (d_out,), d_in), requires_grad=True,
                           name=f"{name}.bias")

    def forward(self, x: Tensor, adj) -> Tensor:
        n = x.shape[0]
        if adj.shape != (n, n):
            raise ShapeError(f"adjacency of shape {adj.shape} for {n} node rows")
        return x @ self.w_self + matmul(adj, x @ self.w_neigh) + self.bias

    def parameters(self):
        return [self.w_self, self.w_neigh, self.bias]
