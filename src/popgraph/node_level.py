"""Per-graph message passing plus global pooling: one vector per input graph.

Each layer is x'_i = relu(W_self x_i + W_neigh (sum_{j in N(i)} x_j) + b)
over the batch's block-diagonal sparse adjacency, so no message crosses from
one input graph to another. Pooling (mean or add) then collapses each
graph's node rows to a single representation, so downstream modules see one
row per sample.

The whole stack and its pooling are one autograd op with a hand-derived
backward. It walks the batch's block plan, :func:`node_blocks`: blocks of
whole graphs of at most ``NODE_BLOCK`` node rows, built when f1 first runs on
the batch and freed with it. Forward, every layer runs on one block's rows,
and the block's 0/1 rows sum each graph's node rows (mean pooling then scales
each sum by 1 / node count). Backward, each graph's gradient, scaled alike,
is repeated over its node rows, and each block's layers are undone in turn.
Blocks share nothing until the parameter gradients are summed, so both passes
deal them by row count to the two lanes of :func:`nn.run_lanes`: each lane
writes its own blocks' rows of the output, what the op keeps of them and
their parameter gradients, which are then added in block order. So the result
is the same bit for bit on one lane or two. The temporaries of both passes
are block-sized; only what the op keeps of each block adds up to the batch:
each layer's input rows, and the last layer's relu sign as a bool mask. A
lower layer's relu sign is read from the next layer's input. The first
layer's neighbour sums are a constant of the batch, kept in the plan. Every
other layer's neighbour sums A x are not kept: the block adjacency is
symmetric, so the backward takes W_neigh's gradient as x^T (A g), and the
same A g gives the input gradient (A g) W_neigh^T + g W_self^T, with no
further sparse product. On 1024 graphs of 10-30 nodes (20,777 node rows,
widths 32, 32) the op keeps 6.0 MB from forward to backward
(``tracemalloc``). The layer arithmetic, :func:`nn.conv_forward` and the
relu, self and bias part of the backward, :func:`nn.conv_backward`, is the
one ``nn.GraphConv`` runs over f3's population graph.
"""

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .data import GraphBatch
from .nn import (GraphConv, check_widths, conv_backward, conv_forward, deal, run_lanes,
                 stacked)
from .tensor import ShapeError, Tensor, _accumulate, _record


POOLING_MODES = ("mean", "add")

# Node rows per block of f1's blocked forward and backward: the most rows a
# block of whole graphs may hold, unless it is one graph that alone has more.
NODE_BLOCK = 2048


class NodeBlock(NamedTuple):
    """Whole graphs of a batch, run by f1 as one block of node rows."""

    rows: slice  # the block's node rows in the batch
    graphs: slice  # the graphs those rows belong to
    adjacency: sp.csr_matrix  # rows x rows: the batch adjacency's diagonal block
    membership: sp.csr_matrix  # graphs x rows: row g is 1 on graph g's rows, 0 elsewhere
    aggregated: np.ndarray  # rows x features, read-only: adjacency @ the rows' features


# Each batch's plan, kept while the batch lives. A plan holds arrays of its
# batch but never the batch, so the batch's last reference still frees both.
_plans = weakref.WeakKeyDictionary()


def node_blocks(batch: GraphBatch) -> tuple:
    """The batch's block plan, built on the first call for the batch:
    consecutive whole graphs grouped into blocks (:class:`NodeBlock`) of at
    most ``NODE_BLOCK`` node rows, a larger graph being a block of its own. No
    edge leaves its graph, so a block's rows need no other block's. Each
    block's adjacency is the batch adjacency's diagonal block, a CSR copy in
    the batch's entry order, and its pooling rows come from the node offsets."""
    plan = _plans.get(batch)
    if plan is not None:
        return plan
    offsets = batch.node_offsets
    blocks = []
    g0 = 0
    while g0 < len(batch):
        r0 = int(offsets[g0])
        g1 = max(g0 + 1, int(np.searchsorted(offsets, r0 + NODE_BLOCK, side="right")) - 1)
        r1 = int(offsets[g1])
        rows = np.arange(r1 - r0)  # one entry per row, in the row's graph
        membership = sp.csr_matrix((np.ones(rows.size), rows, offsets[g0:g1 + 1] - r0))
        adjacency = batch.adjacency[r0:r1, r0:r1]
        aggregated = adjacency @ batch.features[r0:r1]
        aggregated.setflags(write=False)
        blocks.append(NodeBlock(slice(r0, r1), slice(g0, g1), adjacency, membership,
                                aggregated))
        g0 = g1
    _plans[batch] = plan = tuple(blocks)
    return plan


@dataclass
class NodeLevelConfig:
    layer_dims: list  # the last entry is the width of the pooled output
    pooling: str = "mean"

    def __post_init__(self):
        check_widths("layer_dims", self.layer_dims, at_least=1)
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}")


class NodeLevelModule:
    """Stack of graph convolutions with relu, followed by global pooling.

    ``layers`` hold the parameters; :meth:`forward` runs them all, and the
    pooling, as one blocked op.
    """

    def __init__(self, config: NodeLevelConfig, input_dim: int, rng: np.random.Generator):
        self.config = config
        self.layers = stacked(GraphConv, [input_dim, *config.layer_dims], rng, "f1.conv")

    def forward(self, batch: GraphBatch) -> Tensor:
        d_in = self.layers[0].w_self.shape[0]
        if batch.features.shape[1] != d_in:
            raise ShapeError(
                f"batch features of width {batch.features.shape[1]} for input width {d_in}")
        layer_params = [layer.parameters() for layer in self.layers]
        weights = [tuple(p.data for p in params) for params in layer_params]
        counts = np.diff(batch.node_offsets)
        scale = 1.0 / counts[:, None] if self.config.pooling == "mean" else 1.0  # 1 is exact
        h = np.empty((len(batch), weights[-1][2].shape[0]))
        blocks = node_blocks(batch)
        lanes = deal([block.rows.stop - block.rows.start for block in blocks])
        saved = [None] * len(blocks)  # per block, each layer's input rows and the last relu sign

        def forward_lane(indices):
            for j in indices:
                block = blocks[j]
                x = batch.features[block.rows]
                inputs = []
                for i, (w_self, w_neigh, bias) in enumerate(weights):
                    ax = block.adjacency @ x if i else block.aggregated
                    inputs.append(x)
                    x = conv_forward(x, ax, w_self, w_neigh, bias)
                h[block.graphs] = block.membership @ x
                saved[j] = (inputs, x > 0.0)

        run_lanes(forward_lane, lanes)
        h *= scale

        def backward(g_h):
            g_h = g_h * scale
            grads = [None] * len(blocks)  # per block, each layer's parameter gradients

            def backward_lane(indices):
                for j in indices:
                    block, (inputs, top_mask) = blocks[j], saved[j]
                    g = np.repeat(g_h[block.graphs], counts[block.graphs], axis=0)
                    grads[j] = [None] * len(weights)
                    for i in reversed(range(len(weights))):
                        x = inputs[i]
                        mask = inputs[i + 1] > 0.0 if i + 1 < len(inputs) else top_mask
                        g, g_w_self, g_bias = conv_backward(g, x, mask)
                        if i:  # the adjacency is symmetric: A g is A^T g, and (A x)^T g is x^T A g
                            w_self, w_neigh, _ = weights[i]
                            ag = block.adjacency @ g
                            g_w_neigh = x.T @ ag
                            g = ag @ w_neigh.T + g @ w_self.T
                        else:
                            g_w_neigh = block.aggregated.T @ g
                        grads[j][i] = (g_w_self, g_w_neigh, g_bias)

            run_lanes(backward_lane, lanes)
            for block_grads in grads:  # in block order, as one lane would add them
                for params, layer_grads in zip(layer_params, block_grads):
                    for p, grad in zip(params, layer_grads):
                        _accumulate(p, grad)

        return _record(h, self.parameters(), backward)

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]
