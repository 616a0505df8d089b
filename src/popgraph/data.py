"""Graph samples, TU-format dataset ingestion, synthetic data, and splits.

The TU text format: ``<name>_A.txt`` lists 1-based comma-separated edge
pairs (each undirected edge in both directions), ``<name>_graph_indicator.txt``
gives the 1-based graph id of every node, ``<name>_graph_labels.txt`` one
label per graph. ``<name>_node_labels.txt`` and ``<name>_node_attributes.txt``
are optional. The loader deduplicates edges to single undirected storage and
remaps graph labels to a contiguous [0, C) range.

Each comma-separated file is parsed as one array, and nodes, edges and
features are grouped per graph with array operations. A file the array parse
rejects goes through a loop over its lines, which also accepts blank-separated
fields. A malformed file still raises :class:`DatasetFormatError` naming the
file and line: when the array parse or a check on its result finds a fault,
a pass over the lines names it.
"""

import io
import itertools
import os
import warnings
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
    is the sparse graphs x nodes 0/1 matrix whose row g marks graph g's nodes,
    and ``mean_pool`` is the same matrix with row g scaled by 1 / (graph g's
    node count). Every graph must have at least one node.
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
        self.mean_pool = sp.diags(1.0 / counts) @ self.membership

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


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _numbered(text: str):
    """(1-based line number, stripped text) of every non-blank line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _line_of_row(text: str, row: int):
    """(line number, text) of the 0-based ``row``-th non-blank line."""
    return next(itertools.islice(_numbered(text), row, None))


def _int64(text: str) -> int:
    """``int(text)``; ValueError outside the int64 range the arrays hold."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def _parse_array(text: str, dtype, width=None):
    """The non-blank lines of ``text`` as a comma-separated (rows, width) array, or None.

    None when a field does not parse as ``dtype``, the rows are ragged or not
    ``width`` wide, a line is blank but for spaces, or there is no row. The
    caller's line loop then names the line at fault, or parses the spellings
    the loop accepts but this parser does not: blank-separated fields,
    ``1_000`` and non-ASCII digits.
    """
    with warnings.catch_warnings():
        # "input contained no data", and int-from-float parsing on numpy
        # versions that deprecate rather than reject it
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",",
                                comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return values if width is None or values.shape[1] == width else None


def _int_column(path: str, text: str, what: str) -> np.ndarray:
    """One integer per non-blank line."""
    values = _parse_array(text, np.int64, width=1)
    if values is not None:
        return values[:, 0]
    parsed = []
    for lineno, line in _numbered(text):
        try:
            parsed.append(_int64(line))
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: bad {what} {line!r}") from None
    return np.array(parsed, dtype=np.int64)


def _edge_rows(path: str, text: str) -> np.ndarray:
    """(rows, 2) node ids, one ``u, v`` or ``u v`` pair per non-blank line."""
    values = _parse_array(text, np.int64, width=2)
    if values is not None:
        return values
    parsed = []
    for lineno, line in _numbered(text):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetFormatError(f"{path}:{lineno}: expected two node ids")
        try:
            parsed.append([_int64(parts[0]), _int64(parts[1])])
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: bad node id in {line!r}") from None
    return np.array(parsed, dtype=np.int64).reshape(-1, 2)


def _attribute_rows(path: str, text: str) -> np.ndarray:
    """One row of floats per non-blank line, every row as wide as the first."""
    values = _parse_array(text, np.float64)
    if values is not None:
        return values
    parsed = []
    for lineno, row in _numbered(text):
        try:
            parsed.append([float(x) for x in row.replace(",", " ").split()])
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: bad attribute row {row!r}") from None
        if len(parsed[-1]) != len(parsed[0]):
            raise DatasetFormatError(
                f"{path}:{lineno}: {len(parsed[-1])} attributes, "
                f"the first row has {len(parsed[0])}"
            )
    return np.array(parsed)


def _require(directory: str, filename: str) -> str:
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing required file: {path}")
    return path


def _optional_text(directory: str, filename: str):
    """(path, text) of an optional file; text is None when it is absent or blank."""
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return path, None
    text = _read_text(path)
    return path, text if text.strip() else None


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

    indicator_text = _read_text(indicator_path)
    graph_ids = _int_column(indicator_path, indicator_text, "graph id")
    if not graph_ids.size:
        raise DatasetFormatError(f"{indicator_path}: no nodes")
    bad = np.flatnonzero(graph_ids < 1)
    if bad.size:
        lineno, line = _line_of_row(indicator_text, bad[0])
        raise DatasetFormatError(f"{indicator_path}:{lineno}: bad graph id {line!r}")
    graph_of_node = graph_ids - 1
    num_graphs = int(graph_of_node.max()) + 1
    total_nodes = graph_of_node.size
    node_counts = np.bincount(graph_of_node, minlength=num_graphs)
    empty = np.flatnonzero(node_counts == 0)
    if empty.size:
        missing = int(empty[0])
        lineno, line = _line_of_row(indicator_text, np.argmax(graph_of_node > missing))
        raise DatasetFormatError(
            f"{indicator_path}:{lineno}: graph id {line} skips graph {missing + 1}, "
            "which has no nodes"
        )
    # Nodes grouped by graph, in file order within each: node order[r] is
    # row r of the stacked graphs, and rank is its inverse.
    order = np.argsort(graph_of_node, kind="stable")
    rank = np.empty(total_nodes, dtype=np.int64)
    rank[order] = np.arange(total_nodes)
    offsets = np.concatenate([[0], np.cumsum(node_counts)])

    raw_labels = _int_column(labels_path, _read_text(labels_path), "graph label")
    if raw_labels.size != num_graphs:
        raise DatasetFormatError(
            f"{labels_path}: {raw_labels.size} labels for {num_graphs} graphs"
        )
    labels = np.unique(raw_labels, return_inverse=True)[1].reshape(-1).tolist()

    edges_text = _read_text(edges_path)
    u, v = (_edge_rows(edges_path, edges_text) - 1).T
    inside = (0 <= u) & (u < total_nodes) & (0 <= v) & (v < total_nodes)
    gu = graph_of_node[np.where(inside, u, 0)]
    gv = graph_of_node[np.where(inside, v, 0)]
    bad = np.flatnonzero(~inside | (gu != gv))
    if bad.size:
        row = bad[0]
        lineno, _ = _line_of_row(edges_text, row)
        if not inside[row]:
            raise DatasetFormatError(f"{edges_path}:{lineno}: node id outside dataset range")
        raise DatasetFormatError(
            f"{edges_path}:{lineno}: edge crosses graphs {gu[row] + 1} and {gv[row] + 1}"
        )
    # One key per undirected edge on stacked rows; sorted keys put each
    # graph's edges together, in (lower, higher) order.
    lo, hi = np.minimum(rank[u], rank[v]), np.maximum(rank[u], rank[v])
    keys = np.unique(lo * total_nodes + hi)
    lo, hi = keys // total_nodes, keys % total_nodes
    edge_graph = graph_of_node[order[lo]]
    edge_offsets = np.concatenate([[0], np.cumsum(np.bincount(edge_graph, minlength=num_graphs))])
    base = offsets[edge_graph]
    pairs = list(zip((lo - base).tolist(), (hi - base).tolist()))

    node_labels_path, node_labels_text = _optional_text(directory, f"{name}_node_labels.txt")
    attrs_path, attrs_text = _optional_text(directory, f"{name}_node_attributes.txt")

    blocks = []
    if node_labels_text is not None:
        values = _int_column(node_labels_path, node_labels_text, "node label")
        if values.size != total_nodes:
            raise DatasetFormatError(
                f"{node_labels_path}: {values.size} rows for {total_nodes} nodes"
            )
        classes, index = np.unique(values, return_inverse=True)
        onehot = np.zeros((total_nodes, classes.size))
        onehot[np.arange(total_nodes), index.reshape(-1)] = 1.0
        blocks.append(onehot)
    if attrs_text is not None:
        attrs = _attribute_rows(attrs_path, attrs_text)
        if len(attrs) != total_nodes:
            raise DatasetFormatError(f"{attrs_path}: {len(attrs)} rows for {total_nodes} nodes")
        blocks.append(attrs)
    if blocks:
        all_features = np.concatenate(blocks, axis=1)
    else:
        all_features = np.ones((total_nodes, 1))
    features = np.split(all_features[order], offsets[1:-1])

    return [
        Graph(
            node_count=int(node_counts[g]),
            edges=pairs[edge_offsets[g]:edge_offsets[g + 1]],
            features=features[g],
            label=labels[g],
        )
        for g in range(num_graphs)
    ]


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
