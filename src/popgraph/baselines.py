"""Non-learned population-graph builders for ablation comparisons.

All builders return dense symmetric 0/1 adjacencies with a zero diagonal:
an Erdos-Renyi graph parameterized by expected node degree, a KNN graph on
Weisfeiler-Lehman kernel similarities between the input graphs, and a KNN
graph rebuilt every forward pass on learned representations (no gradient
flows through neighbor selection).

The WL subtree kernel is computed in its explicit feature-map form
(Shervashidze et al., JMLR 2011): one sparse count matrix Phi, graphs x
compressed labels of every refinement round, and the gram ``Phi Phi^T``.

Every builder works in blocks of ``nn.ROW_BLOCK`` rows, writing
each block's rows of the N x N result in place, and their mirror where it is
needed. A builder thus holds its result, its N x N input where it has one
(the gram of ``knn_from_gram``, the distances of ``dynamic_knn_population``)
and the arrays of one row block: its sparse product in ``wl_gram``; its
similarities, their negation and their argsort in the kNN builders; its
uniform draws in ``random_population``.
"""

import numpy as np
import scipy.sparse as sp

from .data import GraphBatch, check_integer, check_real
from .latent_graph import _require_finite_rows, pairwise_distances
from .nn import row_blocks
from .tensor import ShapeError

WL_DEFAULT_ITERATIONS = 3


def random_population(n: int, expected_degree: float, seed: int) -> np.ndarray:
    """Erdos-Renyi adjacency with pair probability expected_degree/(n-1).

    Row block r0:r1 draws ``rng.random((r1 - r0, n))``, the rows r0:r1 of one
    ``rng.random((n, n))`` draw, and keeps its pairs above the diagonal.
    """
    check_integer("n", n, 2)
    check_real("expected_degree", expected_degree, 0)
    check_integer("seed", seed, 0)
    p = min(1.0, expected_degree / (n - 1))
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n))
    for r0, r1 in row_blocks(n):
        r, c = np.nonzero(np.triu(rng.random((r1 - r0, n)) < p, k=r0 + 1))
        r += r0
        adj[r, c] = adj[c, r] = 1.0
    return adj


def _wl_round(labels: np.ndarray, adjacency) -> np.ndarray:
    """Each node's next WL label: one per class of (own label, sorted multiset
    of neighbour labels), numbered on from ``labels.max() + 1`` so that no
    label recurs across rounds. A node's neighbours are its CSR ``adjacency``
    row; the nodes of one degree are compared as the rows of one matrix.
    """
    indptr = adjacency.indptr
    degree = np.diff(indptr)
    row = np.repeat(np.arange(degree.size), degree)
    neighbour = labels[adjacency.indices]
    neighbour = neighbour[np.lexsort((neighbour, row))]  # sorted within each row
    refined = np.empty_like(labels)
    count = labels.max() + 1
    for d in np.unique(degree):
        nodes = np.flatnonzero(degree == d)
        keys = np.column_stack([labels[nodes], neighbour[indptr[nodes, None] + np.arange(d)]])
        order = np.lexsort(keys.T)  # equal rows become adjacent
        first = np.concatenate([[True], (np.diff(keys[order], axis=0) != 0).any(axis=1)])
        refined[nodes[order]] = count + np.cumsum(first) - 1
        count += np.count_nonzero(first)
    return refined


def wl_gram(batch: GraphBatch, iterations: int = WL_DEFAULT_ITERATIONS) -> np.ndarray:
    """WL subtree kernel matrix ``Phi Phi^T`` over the graphs of a batch.

    Round 0 refines equal labels into degrees; row g of the sparse Phi counts
    graph g's nodes under each label of every round. Its entries are
    integers, so the float64 gram is exact and exactly symmetric. ``iterations``
    is an integer of at least 0.
    """
    check_integer("iterations", iterations, 0)
    rounds = [np.zeros(batch.total_nodes, dtype=np.intp)]
    for _ in range(iterations + 1):
        rounds.append(_wl_round(rounds[-1], batch.adjacency))
    n = len(batch)
    cols = np.concatenate(rounds[1:])
    rows = np.tile(np.repeat(np.arange(n), np.diff(batch.node_offsets)), iterations + 1)
    phi = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, cols.max() + 1))
    phi_t = phi.T.tocsr()
    gram = np.empty((n, n))
    for r0, r1 in row_blocks(n):
        (phi[r0:r1] @ phi_t).toarray(out=gram[r0:r1])
    return gram


def _knn_from_similarity(blocks, n: int, k: int) -> np.ndarray:
    """Top-k per row (self excluded, ties to the lower index), union-symmetrized.

    ``blocks`` yields ``(r0, r1, sim)``: the similarities of rows r0:r1 to
    all n rows, a (r1 - r0) x n array. ``k`` is an integer from 0 to n - 1.
    """
    check_integer("k", k, 0)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    adj = np.zeros((n, n))
    for r0, r1, sim in blocks:
        # stable: lower index wins ties. Of each row's first k + 1, drop the
        # row itself, or the last one when the row itself ranks lower.
        order = np.argsort(-sim, axis=1, kind="stable")[:, :k + 1]
        rows = np.arange(r0, r1)
        keep = order != rows[:, None]
        keep[keep.all(axis=1), k] = False
        r, c = np.repeat(rows, k), order[keep]
        adj[r, c] = adj[c, r] = 1.0
        del sim, order  # or both would live on while the next block is made
    return adj


def knn_from_gram(gram: np.ndarray, k: int) -> np.ndarray:
    """kNN on cosine similarities of a kernel gram; a row with a NaN or
    infinite entry, a negative diagonal entry or an all-zero row is rejected,
    and a gram that is not a square matrix raises ``ShapeError``."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ShapeError(f"knn_from_gram needs a square gram, not shape {gram.shape}")
    _require_finite_rows(gram, "gram")
    squared_norms = np.diag(gram)
    negative = np.flatnonzero(squared_norms < 0.0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"gram row {i} has the diagonal entry {squared_norms[i]}, "
                         "not a squared norm")
    norms = np.sqrt(squared_norms)
    empty = np.flatnonzero(norms == 0.0)
    if empty.size:
        raise ValueError(f"gram row {int(empty[0])} is all zero: its graph has no nodes")
    n = gram.shape[0]
    blocks = ((r0, r1, gram[r0:r1] / (norms[r0:r1, None] * norms[None, :]))
              for r0, r1 in row_blocks(n))
    return _knn_from_similarity(blocks, n, k)


def dynamic_knn_population(h, k: int) -> np.ndarray:
    """Euclidean KNN on representation rows; constant w.r.t. gradients."""
    x = np.asarray(h.data if hasattr(h, "data") else h, dtype=np.float64)
    n = x.shape[0]
    distances = pairwise_distances(x)
    blocks = ((r0, r1, -distances[r0:r1]) for r0, r1 in row_blocks(n))
    return _knn_from_similarity(blocks, n, k)
