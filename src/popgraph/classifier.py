"""Classifier over the population graph: message passing plus a head.

Each sample is a node of the population graph; :class:`~popgraph.nn.GraphConv`
layers over its adjacency A, x' = relu(x W_self + (A x) W_neigh + b), mix
the graph representations of similar samples, and a per-node MLP head turns
each mixed representation into class probabilities. Gradients flow through a
learned adjacency, so the edge-weight parameters learn from the
classification loss; how each layer multiplies by A is ``nn.GraphConv``'s.
"""

from dataclasses import dataclass

import numpy as np

from .data import whole_numbers
from .nn import MLP, GraphConv, check_widths, stacked
from .tensor import ShapeError, Tensor, check_tensor, exp, log_softmax


@dataclass
class ClassifierConfig:
    gnn_dims: list
    head_dims: list  # fully-connected sizes, ending in the class count C

    def __post_init__(self):
        check_widths("gnn_dims", self.gnn_dims)
        check_widths("head_dims", self.head_dims, at_least=1)
        if self.head_dims[-1] < 2:
            raise ValueError(
                f"head_dims must end in the class count, at least 2: {self.head_dims!r}")


class PopulationClassifier:
    """GNN layers over the population adjacency, then a per-node head."""

    def __init__(self, config: ClassifierConfig, input_dim: int, rng: np.random.Generator):
        self.config = config
        dims = [input_dim] + list(config.gnn_dims)
        self.gnn_layers = stacked(GraphConv, dims, rng, "f3.conv")
        self.head = MLP([dims[-1]] + list(config.head_dims), rng, name="f3.head")

    def forward(self, h: Tensor, a: Tensor):
        """Returns (probabilities, logits); probability rows sum to 1."""
        for layer in self.gnn_layers:
            h = layer.forward(h, a)
        z = self.head.forward(h)
        return exp(log_softmax(z)), z

    def parameters(self):
        params = [p for layer in self.gnn_layers for p in layer.parameters()]
        return params + self.head.parameters()


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over samples of -log softmax(logits)[i, label_i], fused and stable.

    Raises ``ShapeError`` naming the shape of logits that are not 2-D, and
    ``ValueError`` for logits of no rows, naming the shape of labels that are
    not one per row, and naming the first index whose label is not a whole
    number (NaN and infinite included), and ``TypeError`` for logits that are
    not a Tensor.
    """
    check_tensor("logits", logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-D logits, not shape {logits.shape}")
    n, c = logits.shape
    if n == 0:
        raise ValueError("cross_entropy needs at least one row: the mean of none is undefined")
    values = np.asarray(labels)
    if values.shape != (n,):
        raise ValueError(
            f"labels of shape {values.shape} for {n} rows, expected shape {(n,)}")
    labels = whole_numbers(values, lambda i: f"label {values[i]} at index {i} is not a whole number")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label outside [0, {c})")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    log_p = log_softmax(logits)
    return (log_p * Tensor(onehot)).sum() * (-1.0 / n)
