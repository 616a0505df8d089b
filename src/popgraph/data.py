"""Graph samples, TU-format dataset ingestion, synthetic data, and splits.

The TU text format: ``<name>_A.txt`` lists 1-based comma-separated edge
pairs (each undirected edge in both directions), ``<name>_graph_indicator.txt``
gives the 1-based graph id of every node, ``<name>_graph_labels.txt`` one
label per graph. ``<name>_node_labels.txt`` and ``<name>_node_attributes.txt``
are optional. The loader deduplicates edges to single undirected storage and
remaps graph labels to a contiguous [0, C) range.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class DatasetFormatError(ValueError):
    """A dataset file is missing or malformed."""


NODE_JITTER_SIGMA = 0.25  # per-node noise in the "ambiguous_features" generator

TOPOLOGIES = ("cycle_vs_star", "ambiguous_features")


@dataclass
class Graph:
    """One input sample: undirected topology plus node features and a label."""

    node_count: int
    edges: list
    features: np.ndarray
    label: int

    def validate(self) -> None:
        if self.features.shape[0] != self.node_count:
            raise DatasetFormatError(
                f"feature rows {self.features.shape[0]} != node count {self.node_count}"
            )
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise DatasetFormatError(f"edge ({u}, {v}) outside [0, {self.node_count})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DatasetFormatError(f"duplicate undirected edge {key}")
            seen.add(key)


class GraphBatch:
    """N graphs stacked for joint processing: the population for one step.

    ``node_offsets`` are prefix indices for block-diagonal stacking.
    ``adjacency`` is the batch-global sparse (CSR) adjacency: each undirected
    edge contributes both directions, a self-loop one entry. ``membership``
    is the sparse graphs x nodes 0/1 matrix whose row g marks graph g's nodes.
    Every graph must have at least one node.
    """

    def __init__(self, graphs):
        if not graphs:
            raise ValueError("GraphBatch needs at least one graph")
        self.graphs = list(graphs)
        counts = np.array([g.node_count for g in self.graphs], dtype=np.intp)
        empty = np.flatnonzero(counts <= 0)
        if empty.size:
            raise ValueError(f"graph {int(empty[0])} of the batch has no nodes")
        self.node_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.labels = np.array([g.label for g in self.graphs], dtype=np.intp)
        self.features = np.concatenate([g.features for g in self.graphs], axis=0)
        n = self.total_nodes
        edges = np.concatenate(
            [np.asarray(g.edges, dtype=np.intp).reshape(-1, 2) + base
             for g, base in zip(self.graphs, self.node_offsets[:-1])])
        u, v = edges[:, 0], edges[:, 1]
        loop = u == v
        rows = np.concatenate([v, u[~loop]])
        cols = np.concatenate([u, v[~loop]])
        self.adjacency = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n))
        self.membership = sp.csr_matrix(
            (np.ones(n), np.arange(n), self.node_offsets), shape=(len(counts), n))

    def __len__(self):
        return len(self.graphs)

    @property
    def total_nodes(self) -> int:
        return int(self.node_offsets[-1])


@dataclass
class SplitPlan:
    """A fixed test split plus k train/validation folds over the rest."""

    seed: int
    test_fraction: float
    folds: int
    test_indices: list
    fold_train: list = field(default_factory=list)
    fold_validation: list = field(default_factory=list)


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic dataset generator (JSON-compatible)."""

    classes: int
    graphs_per_class: int
    nodes_min: int
    nodes_max: int
    topology: str
    feature_dim: int
    noise_sigma: float
    seed: int = 0

    def validate(self) -> None:
        if self.classes < 2:
            raise ValueError("synthetic spec needs at least 2 classes")
        if self.graphs_per_class < 1:
            raise ValueError("synthetic spec: class with 0 samples")
        if not (3 <= self.nodes_min <= self.nodes_max):
            raise ValueError("synthetic spec: need 3 <= nodes_min <= nodes_max")
        if self.feature_dim < 1:
            raise ValueError("synthetic spec: feature_dim must be positive")
        if self.noise_sigma < 0:
            raise ValueError("synthetic spec: noise_sigma must be >= 0")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}")


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh]


def _numbered(lines):
    """(1-based line number, text) of every non-blank line."""
    return ((lineno, line) for lineno, line in enumerate(lines, start=1) if line)


def _int(path: str, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DatasetFormatError(f"{path}:{lineno}: bad {what} {text!r}") from None


def _require(directory: str, filename: str) -> str:
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing required file: {path}")
    return path


def _optional_lines(directory: str, filename: str):
    """(path, lines) of an optional file; lines is None when it is absent or blank."""
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return path, None
    lines = _read_lines(path)
    return path, lines if any(lines) else None


def load_tu_dataset(directory: str, name: str):
    """Load a TU-format dataset into a list of :class:`Graph`.

    Node features are the one-hot of node labels concatenated with raw
    attributes when both files exist, whichever exists otherwise, and a
    constant-1 single feature when neither does. Graph ids must run from 1
    without gaps. A malformed file raises :class:`DatasetFormatError` naming
    the file and, where one line is at fault, the line.
    """
    indicator_path = _require(directory, f"{name}_graph_indicator.txt")
    edges_path = _require(directory, f"{name}_A.txt")
    labels_path = _require(directory, f"{name}_graph_labels.txt")

    indicator_lines = _read_lines(indicator_path)
    graph_of_node = []  # 0-based graph id per 0-based global node
    for lineno, line in _numbered(indicator_lines):
        gid = _int(indicator_path, lineno, line, "graph id")
        if gid < 1:
            raise DatasetFormatError(f"{indicator_path}:{lineno}: bad graph id {line!r}")
        graph_of_node.append(gid - 1)
    if not graph_of_node:
        raise DatasetFormatError(f"{indicator_path}: no nodes")
    num_graphs = max(graph_of_node) + 1
    total_nodes = len(graph_of_node)

    # global node index -> (graph, local index), preserving file order
    local_index = np.zeros(total_nodes, dtype=np.intp)
    node_counts = np.zeros(num_graphs, dtype=np.intp)
    for node, g in enumerate(graph_of_node):
        local_index[node] = node_counts[g]
        node_counts[g] += 1
    empty = np.flatnonzero(node_counts == 0)
    if empty.size:
        missing = int(empty[0])
        lineno, line = next(row for row, g in zip(_numbered(indicator_lines), graph_of_node)
                            if g > missing)
        raise DatasetFormatError(
            f"{indicator_path}:{lineno}: graph id {line} skips graph {missing + 1}, "
            "which has no nodes"
        )

    raw_labels = [_int(labels_path, lineno, line, "graph label")
                  for lineno, line in _numbered(_read_lines(labels_path))]
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            f"{labels_path}: {len(raw_labels)} labels for {num_graphs} graphs"
        )
    label_map = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}

    edge_sets = [set() for _ in range(num_graphs)]
    for lineno, line in _numbered(_read_lines(edges_path)):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetFormatError(f"{edges_path}:{lineno}: expected two node ids")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise DatasetFormatError(f"{edges_path}:{lineno}: bad node id in {line!r}") from None
        if not (0 <= u < total_nodes and 0 <= v < total_nodes):
            raise DatasetFormatError(
                f"{edges_path}:{lineno}: node id outside dataset range"
            )
        if graph_of_node[u] != graph_of_node[v]:
            raise DatasetFormatError(
                f"{edges_path}:{lineno}: edge crosses graphs "
                f"{graph_of_node[u] + 1} and {graph_of_node[v] + 1}"
            )
        g = graph_of_node[u]
        a, b = int(local_index[u]), int(local_index[v])
        edge_sets[g].add((min(a, b), max(a, b)))

    node_labels_path, node_label_lines = _optional_lines(directory, f"{name}_node_labels.txt")
    attrs_path, attr_lines = _optional_lines(directory, f"{name}_node_attributes.txt")

    blocks = []
    if node_label_lines is not None:
        values = [_int(node_labels_path, lineno, row, "node label")
                  for lineno, row in _numbered(node_label_lines)]
        if len(values) != total_nodes:
            raise DatasetFormatError(
                f"{node_labels_path}: {len(values)} rows for {total_nodes} nodes"
            )
        classes = sorted(set(values))
        index = {c: i for i, c in enumerate(classes)}
        onehot = np.zeros((total_nodes, len(classes)))
        for node, value in enumerate(values):
            onehot[node, index[value]] = 1.0
        blocks.append(onehot)
    if attr_lines is not None:
        attrs = []
        for lineno, row in _numbered(attr_lines):
            try:
                attrs.append([float(x) for x in row.replace(",", " ").split()])
            except ValueError:
                raise DatasetFormatError(
                    f"{attrs_path}:{lineno}: bad attribute row {row!r}") from None
            if len(attrs[-1]) != len(attrs[0]):
                raise DatasetFormatError(
                    f"{attrs_path}:{lineno}: {len(attrs[-1])} attributes, "
                    f"the first row has {len(attrs[0])}"
                )
        if len(attrs) != total_nodes:
            raise DatasetFormatError(f"{attrs_path}: {len(attrs)} rows for {total_nodes} nodes")
        blocks.append(np.array(attrs))
    if blocks:
        all_features = np.concatenate(blocks, axis=1)
    else:
        all_features = np.ones((total_nodes, 1))

    features_per_graph = [np.zeros((int(c), all_features.shape[1])) for c in node_counts]
    for node in range(total_nodes):
        features_per_graph[graph_of_node[node]][local_index[node]] = all_features[node]

    graphs = []
    for g in range(num_graphs):
        graphs.append(
            Graph(
                node_count=int(node_counts[g]),
                edges=sorted(edge_sets[g]),
                features=features_per_graph[g],
                label=label_map[raw_labels[g]],
            )
        )
    for graph in graphs:
        graph.validate()
    return graphs


def save_tu_dataset(graphs, directory: str, name: str) -> None:
    """Serialize graphs back to TU files (features stored as attributes)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{name}_graph_indicator.txt"), "w") as fh:
        for gid, graph in enumerate(graphs, start=1):
            for _ in range(graph.node_count):
                fh.write(f"{gid}\n")
    with open(os.path.join(directory, f"{name}_graph_labels.txt"), "w") as fh:
        for graph in graphs:
            fh.write(f"{graph.label}\n")
    offsets = np.concatenate([[0], np.cumsum([g.node_count for g in graphs])])
    with open(os.path.join(directory, f"{name}_A.txt"), "w") as fh:
        for graph, base in zip(graphs, offsets):
            for u, v in sorted(graph.edges):
                fh.write(f"{base + u + 1}, {base + v + 1}\n")
                if u != v:
                    fh.write(f"{base + v + 1}, {base + u + 1}\n")
    with open(os.path.join(directory, f"{name}_node_attributes.txt"), "w") as fh:
        for graph in graphs:
            for row in graph.features:
                fh.write(", ".join(repr(float(x)) for x in row) + "\n")


def _cycle_edges(n: int):
    return [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)]


def _star_edges(n: int):
    return [(0, i) for i in range(1, n)]


def make_synthetic_dataset(spec: SyntheticSpec, seed: int):
    """Deterministic synthetic graphs; classes balanced by construction.

    ``cycle_vs_star``: even classes are cycles, odd classes are stars, and
    node features are Gaussian around a class-specific mean, so either the
    topology or the features can carry the class.

    ``ambiguous_features``: every graph is a ring; the class moves the mean
    of the node features by +-1 along one coordinate while a per-graph
    offset with standard deviation ``noise_sigma`` (shared by all nodes of
    the graph, so pooling cannot remove it) keeps single-graph evidence
    ambiguous. Neighborhoods of similar graphs then disambiguate.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    graphs = []
    for c in range(spec.classes):
        for _ in range(spec.graphs_per_class):
            n = int(rng.integers(spec.nodes_min, spec.nodes_max + 1))
            if spec.topology == "cycle_vs_star":
                edges = _cycle_edges(n) if c % 2 == 0 else _star_edges(n)
                mean = np.zeros(spec.feature_dim)
                mean[c % spec.feature_dim] = 2.0
                feats = mean + spec.noise_sigma * rng.normal(size=(n, spec.feature_dim))
            else:  # ambiguous_features
                edges = _cycle_edges(n)
                mean = np.zeros(spec.feature_dim)
                if spec.classes == 2:
                    mean[0] = 1.0 if c == 0 else -1.0
                else:
                    mean[c % spec.feature_dim] = 1.0
                offset = spec.noise_sigma * rng.normal(size=spec.feature_dim)
                feats = (
                    mean
                    + offset
                    + NODE_JITTER_SIGMA * rng.normal(size=(n, spec.feature_dim))
                )
            graphs.append(Graph(node_count=n, edges=edges, features=feats, label=c))
    return graphs


def make_splits(n: int, test_fraction: float, k: int, seed: int, labels=None) -> SplitPlan:
    """Fixed test split plus k folds over the rest, label-stratified when given.

    The test set is drawn once; remaining indices are dealt into k folds,
    each serving once as validation while the others train.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k + 2:
        raise ValueError(f"dataset of size {n} too small for k={k}")
    rng = np.random.default_rng(seed)
    if labels is None:
        groups = [list(range(n))]
    else:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError("labels length must equal n")
        groups = [
            [i for i in range(n) if labels[i] == lab] for lab in sorted(set(labels))
        ]

    test, pools = [], []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        t = int(round(test_fraction * len(group)))
        t = min(t, max(0, len(group) - k))  # keep enough samples to fold
        test.extend(group[:t])
        pools.append(group[t:])
    remaining = sum(len(p) for p in pools)
    if remaining < k:
        raise ValueError(f"only {remaining} non-test samples for k={k} folds")

    buckets = [[] for _ in range(k)]
    cursor = 0
    for pool in pools:  # round-robin keeps folds stratified too
        for idx in pool:
            buckets[cursor % k].append(idx)
            cursor += 1
    if any(not b for b in buckets):
        raise ValueError("a fold received no validation samples")

    fold_validation = [sorted(b) for b in buckets]
    fold_train = []
    for f in range(k):
        train = sorted(x for g, b in enumerate(buckets) if g != f for x in b)
        fold_train.append(train)
    return SplitPlan(
        seed=seed,
        test_fraction=test_fraction,
        folds=k,
        test_indices=sorted(test),
        fold_train=fold_train,
        fold_validation=fold_validation,
    )
