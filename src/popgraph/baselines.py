"""Non-learned population-graph builders for ablation comparisons.

All builders return dense symmetric 0/1 adjacencies with a zero diagonal:
an Erdos-Renyi graph parameterized by expected node degree, a KNN graph on
Weisfeiler-Lehman kernel similarities between the input graphs, and a KNN
graph rebuilt every forward pass on learned representations (no gradient
flows through neighbor selection).

The WL subtree kernel is computed in its explicit feature-map form
(Shervashidze et al., JMLR 2011): one sparse count matrix Phi, graphs x
compressed labels of every refinement round, and the gram ``Phi Phi^T``.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from .data import Graph

WL_DEFAULT_ITERATIONS = 3


def random_population(n: int, expected_degree: float, seed: int) -> np.ndarray:
    """Erdos-Renyi adjacency with pair probability expected_degree/(n-1)."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if expected_degree < 0:
        raise ValueError("expected_degree must be >= 0")
    p = min(1.0, expected_degree / (n - 1))
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1).astype(np.float64)
    return adj + adj.T


def _wl_labels(graph: Graph, iterations: int, label_dict: dict) -> list:
    """Compressed labels of every node in rounds 0..iterations, concatenated.

    Initial labels are node degrees; each round hashes (own label, sorted
    multiset of neighbor labels) through ``label_dict``, which must be
    shared across every graph that will be compared. Every key of a round
    holds a label of the round before, so no label recurs across rounds.
    """
    neighbors = [[] for _ in range(graph.node_count)]
    for u, v in graph.edges:
        neighbors[u].append(v)
        if u != v:
            neighbors[v].append(u)

    def compress(key):
        if key not in label_dict:
            label_dict[key] = len(label_dict)
        return label_dict[key]

    labels = [compress(("init", len(nbrs))) for nbrs in neighbors]
    every_round = list(labels)
    for _ in range(iterations):
        labels = [
            compress((labels[v], tuple(sorted(labels[u] for u in neighbors[v]))))
            for v in range(graph.node_count)
        ]
        every_round.extend(labels)
    return every_round


def wl_gram(graphs, iterations: int = WL_DEFAULT_ITERATIONS) -> np.ndarray:
    """WL subtree kernel matrix ``Phi Phi^T`` over a graph list.

    Row g of the sparse Phi counts graph g's nodes under each compressed
    label, over all rounds. Its entries are integers, so the float64 gram
    is exact and exactly symmetric.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    shared = {}
    labels = [_wl_labels(g, iterations, shared) for g in graphs]
    rows = np.repeat(np.arange(len(graphs)), [len(lab) for lab in labels])
    cols = np.fromiter(itertools.chain.from_iterable(labels), dtype=np.intp, count=rows.size)
    phi = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(len(graphs), len(shared)))
    return (phi @ phi.T).toarray()


def _knn_from_similarity(sim: np.ndarray, k: int) -> np.ndarray:
    """Top-k per row (self excluded, ties to the lower index), union-symmetrized."""
    n = sim.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    # stable: lower index wins ties. Of each row's first k + 1, drop the row
    # itself, or the last one when the row itself ranks lower.
    order = np.argsort(-sim, axis=1, kind="stable")[:, :k + 1]
    keep = order != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), k), order[keep]] = 1.0
    return np.maximum(adj, adj.T)


def knn_from_gram(gram: np.ndarray, k: int) -> np.ndarray:
    """kNN on cosine similarities of a kernel gram; an all-zero row is rejected."""
    norms = np.sqrt(np.diag(gram))
    empty = np.flatnonzero(norms == 0.0)
    if empty.size:
        raise ValueError(f"gram row {int(empty[0])} is all zero: its graph has no nodes")
    sim = gram / np.outer(norms, norms)
    return _knn_from_similarity(sim, k)


def dynamic_knn_population(h, k: int) -> np.ndarray:
    """Euclidean KNN on representation rows; constant w.r.t. gradients."""
    x = np.asarray(h.data if hasattr(h, "data") else h, dtype=np.float64)
    n = x.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    return _knn_from_similarity(-d2, k)
