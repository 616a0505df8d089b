"""Non-learned population-graph builders for ablation comparisons.

All builders return dense symmetric 0/1 adjacencies with a zero diagonal:
an Erdos-Renyi graph parameterized by expected node degree, a KNN graph on
Weisfeiler-Lehman kernel similarities between the input graphs, and a KNN
graph rebuilt every forward pass on learned representations (no gradient
flows through neighbor selection).
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

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


@dataclass
class WLFeatureMap:
    """Per-iteration histograms of compressed node labels."""

    histograms: list  # list[Counter], length iterations + 1
    iterations: int


def wl_feature_map(graph: Graph, iterations: int, label_dict: dict,
                   node_labels=None) -> WLFeatureMap:
    """Iterated neighborhood-label refinement histograms.

    Initial labels default to node degrees; each round hashes (own label,
    sorted multiset of neighbor labels) through ``label_dict``, which must
    be shared across every graph that will be compared.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    neighbors = [[] for _ in range(graph.node_count)]
    for u, v in graph.edges:
        neighbors[u].append(v)
        if u != v:
            neighbors[v].append(u)
    if node_labels is None:
        labels = [len(nbrs) for nbrs in neighbors]
    else:
        labels = list(node_labels)
        if len(labels) != graph.node_count:
            raise ValueError("node_labels length must equal node count")

    def compress(key):
        if key not in label_dict:
            label_dict[key] = len(label_dict)
        return label_dict[key]

    labels = [compress(("init", lab)) for lab in labels]
    histograms = [Counter(labels)]
    for _ in range(iterations):
        labels = [
            compress((labels[v], tuple(sorted(labels[u] for u in neighbors[v]))))
            for v in range(graph.node_count)
        ]
        histograms.append(Counter(labels))
    return WLFeatureMap(histograms=histograms, iterations=iterations)


def _histogram_dot(a: Counter, b: Counter) -> float:
    if len(b) < len(a):
        a, b = b, a
    return float(sum(count * b.get(label, 0) for label, count in a.items()))


def wl_map_kernel(fa: WLFeatureMap, fb: WLFeatureMap) -> float:
    return sum(_histogram_dot(ha, hb) for ha, hb in zip(fa.histograms, fb.histograms))


def wl_gram(graphs, iterations: int = WL_DEFAULT_ITERATIONS) -> np.ndarray:
    """Kernel matrix over a graph list with one shared label dictionary."""
    shared = {}
    maps = [wl_feature_map(g, iterations, shared) for g in graphs]
    n = len(graphs)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = wl_map_kernel(maps[i], maps[j])
    return gram


def _knn_from_similarity(sim: np.ndarray, k: int) -> np.ndarray:
    """Top-k per row (self excluded, ties to the lower index), union-symmetrized."""
    n = sim.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    adj = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(-sim[i], kind="stable")  # stable: lower index wins ties
        picked = [j for j in order if j != i][:k]
        adj[i, picked] = 1.0
    return np.maximum(adj, adj.T)


def knn_from_gram(gram: np.ndarray, k: int) -> np.ndarray:
    norms = np.sqrt(np.diag(gram))
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
