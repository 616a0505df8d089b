"""Small parameter containers shared by the model modules."""

import numpy as np
import scipy.sparse as sp

from .tensor import ShapeError, Tensor, _accumulate, _record, relu


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
    """x' = relu(x @ W_self + (A @ x) @ W_neigh + b), one layer of message passing.

    ``adj`` is the n x n adjacency of the graph whose n nodes are the rows of
    ``x``: a constant scipy.sparse matrix for the block-diagonal batch of
    input graphs, or a dense Tensor (learned or fixed) for the population.

    The layer is one autograd op with a hand-derived backward. Aggregating
    before projecting runs the adjacency product on d_in columns, and the
    backward takes W_neigh's gradient from the saved A @ x; A^T runs only
    when ``x`` needs a gradient. relu maps a NaN pre-activation to 0, as
    ``tensor.relu`` does.
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
        d_in = self.w_self.shape[0]
        if x.ndim != 2 or x.shape[1] != d_in:
            raise ShapeError(f"node rows of shape {x.shape} for input width {d_in}")
        w_self, w_neigh, bias = self.w_self, self.w_neigh, self.bias
        dense = not sp.issparse(adj)
        a = adj.data if dense else adj
        ax = a @ x.data
        y = x.data @ w_self.data
        y += ax @ w_neigh.data
        y += bias.data
        np.fmax(y, 0.0, out=y)

        def backward(g):
            g = g * (y > 0.0)  # relu's subgradient is 0 at exactly 0
            _accumulate(bias, np.ones(n) @ g)  # a BLAS product: ~3x faster than g.sum(axis=0)
            _accumulate(w_self, x.data.T @ g)
            _accumulate(w_neigh, ax.T @ g)
            adj_grad = dense and adj.requires_grad
            if x.requires_grad or adj_grad:
                g_ax = g @ w_neigh.data.T
                if x.requires_grad:
                    _accumulate(x, g @ w_self.data.T + a.T @ g_ax)
                if adj_grad:
                    _accumulate(adj, g_ax @ x.data.T)

        parents = (x, w_self, w_neigh, bias) + ((adj,) if dense else ())
        return _record(y, parents, backward)

    def parameters(self):
        return [self.w_self, self.w_neigh, self.bias]
