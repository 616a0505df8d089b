"""Graph samples, TU-format dataset ingestion, synthetic data, and splits.

The TU text format: ``<name>_A.txt`` lists 1-based comma-separated edge
pairs (each undirected edge in both directions), ``<name>_graph_indicator.txt``
gives the 1-based graph id of every node, ``<name>_graph_labels.txt`` one
label per graph. ``<name>_node_labels.txt`` and ``<name>_node_attributes.txt``
are optional. The loader deduplicates edges to single undirected storage and
remaps graph labels to a contiguous [0, C) range.

Every file has one grammar: one row per line, fields separated by commas and
read as ``np.loadtxt`` reads them (an integer is an optional sign and ASCII
digits), blank lines skipped but counted, and every node attribute finite.
Each file is parsed as one array, and nodes, edges and features are grouped
per graph with array operations. A malformed file raises
:class:`DatasetFormatError` naming the file and, where one line is at fault,
the first such line: only then are the lines parsed one at a time.
"""

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


class GraphBatch:
    """N graphs stacked for joint processing: the population for one step.

    ``node_offsets`` are prefix indices for block-diagonal stacking.
    ``adjacency`` is the batch-global sparse (CSR) adjacency: each undirected
    edge contributes both directions, a self-loop one entry. ``membership``
    is the sparse graphs x nodes 0/1 matrix whose row g marks graph g's nodes,
    and ``mean_pool`` is the same matrix with row g scaled by 1 / (graph g's
    node count). ``aggregated_features`` is ``adjacency @ features``, each
    node's summed neighbour features, built once because both operands are
    constant; it and ``features`` are read-only, so it cannot go stale.
    Every graph must have at least one node, one feature row per node, and
    edges between its own nodes, each undirected edge listed once; a
    ``ValueError`` names the first graph that does not.
    """

    def __init__(self, graphs):
        if not graphs:
            raise ValueError("GraphBatch needs at least one graph")
        self.graphs = list(graphs)
        counts = np.array([g.node_count for g in self.graphs], dtype=np.intp)
        empty = np.flatnonzero(counts <= 0)
        if empty.size:
            raise ValueError(f"graph {int(empty[0])} of the batch has no nodes")
        feature_rows = np.array([g.features.shape[0] for g in self.graphs])
        bad = np.flatnonzero(feature_rows != counts)
        if bad.size:
            g = int(bad[0])
            raise ValueError(
                f"graph {g} of the batch has {feature_rows[g]} feature rows for {counts[g]} nodes")
        self.node_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.labels = np.array([g.label for g in self.graphs], dtype=np.intp)
        self.features = np.concatenate([g.features for g in self.graphs], axis=0)
        n = self.total_nodes
        local = [np.asarray(g.edges, dtype=np.intp).reshape(-1, 2) for g in self.graphs]
        edge_graph = np.repeat(np.arange(len(local)), [e.shape[0] for e in local])
        edges = np.concatenate(local)
        bad = np.flatnonzero(((edges < 0) | (edges >= counts[edge_graph, None])).any(axis=1))
        if bad.size:
            g, (a, b) = edge_graph[bad[0]], edges[bad[0]]
            raise ValueError(
                f"graph {g} of the batch has edge ({a}, {b}) outside [0, {counts[g]})")
        edges += self.node_offsets[edge_graph, None]
        u, v = edges[:, 0], edges[:, 1]
        loop = u == v
        rows = np.concatenate([v, u[~loop]])
        cols = np.concatenate([u, v[~loop]])
        self.adjacency = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n))
        if self.adjacency.nnz < rows.size:  # the CSR conversion summed a repeated entry
            keys = np.minimum(u, v) * n + np.maximum(u, v)
            order = np.argsort(keys, kind="stable")
            e = order[1:][np.diff(keys[order]) == 0].min()
            g, base = edge_graph[e], self.node_offsets[edge_graph[e]]
            raise ValueError(
                f"graph {g} of the batch repeats edge ({u[e] - base}, {v[e] - base})")
        self.membership = sp.csr_matrix(
            (np.ones(n), np.arange(n), self.node_offsets), shape=(len(counts), n))
        self.mean_pool = sp.diags(1.0 / counts) @ self.membership
        self.aggregated_features = self.adjacency @ self.features
        self.features.setflags(write=False)
        self.aggregated_features.setflags(write=False)

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
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _line_of_row(text: str, row: int):
    """(line number, text) of the 0-based ``row``-th non-blank line."""
    return next(itertools.islice(_numbered(text), row, None))


def _loadtxt(lines, dtype) -> np.ndarray:
    """``lines`` as one comma-separated 2-D array; numpy's warnings raise."""
    with warnings.catch_warnings():
        # "input contained no data", and int-from-float parsing on numpy
        # versions that deprecate rather than reject it
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=2)


def _rows(path: str, text: str, dtype, what: str, width=None) -> np.ndarray:
    """The non-blank lines of ``text`` as a (lines, fields) array of ``dtype``.

    Each line holds ``width`` comma-separated fields, or as many as the first
    line when ``width`` is None. The whole text is parsed in one call; only
    when that fails are the lines parsed one at a time, by the same call, to
    name the first line whose field does not parse or whose width differs.
    """
    try:
        values = _loadtxt(text.splitlines(), dtype)
    except (ValueError, Warning):
        pass
    else:
        if width in (None, values.shape[1]):
            return values
    rows = []
    for lineno, line in _numbered(text):
        try:
            row = _loadtxt([line], dtype)
        except (ValueError, Warning):
            raise DatasetFormatError(f"{path}:{lineno}: bad {what} {line!r}") from None
        width = width or row.shape[1]
        if row.shape[1] != width:
            raise DatasetFormatError(
                f"{path}:{lineno}: {what} {line!r} has {row.shape[1]} fields, expected {width}"
            )
        rows.append(row)
    # no line at fault: the text has no row, or blank lines of spaces, which
    # the one call rejects
    return np.concatenate(rows) if rows else np.empty((0, width or 0), dtype=dtype)


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
    without gaps. Every file is comma-separated, one row per line; blank lines
    are skipped, fields are read as ``np.loadtxt`` reads them, and node
    attributes must be finite. A malformed file raises
    :class:`DatasetFormatError` naming the file and, where one line is at
    fault, the line.
    """
    indicator_path = _require(directory, f"{name}_graph_indicator.txt")
    edges_path = _require(directory, f"{name}_A.txt")
    labels_path = _require(directory, f"{name}_graph_labels.txt")

    indicator_text = _read_text(indicator_path)
    graph_ids = _rows(indicator_path, indicator_text, np.int64, "graph id", width=1)[:, 0]
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

    labels_text = _read_text(labels_path)
    raw_labels = _rows(labels_path, labels_text, np.int64, "graph label", width=1)[:, 0]
    if raw_labels.size != num_graphs:
        raise DatasetFormatError(
            f"{labels_path}: {raw_labels.size} labels for {num_graphs} graphs"
        )
    labels = np.unique(raw_labels, return_inverse=True)[1].reshape(-1).tolist()

    edges_text = _read_text(edges_path)
    u, v = (_rows(edges_path, edges_text, np.int64, "edge", width=2) - 1).T
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
        values = _rows(node_labels_path, node_labels_text, np.int64, "node label", width=1)[:, 0]
        if values.size != total_nodes:
            raise DatasetFormatError(
                f"{node_labels_path}: {values.size} rows for {total_nodes} nodes"
            )
        classes, index = np.unique(values, return_inverse=True)
        onehot = np.zeros((total_nodes, classes.size))
        onehot[np.arange(total_nodes), index.reshape(-1)] = 1.0
        blocks.append(onehot)
    if attrs_text is not None:
        attrs = _rows(attrs_path, attrs_text, np.float64, "attribute row")
        bad = np.flatnonzero(~np.isfinite(attrs).all(axis=1))
        if bad.size:
            lineno, line = _line_of_row(attrs_text, bad[0])
            raise DatasetFormatError(f"{attrs_path}:{lineno}: non-finite attribute in {line!r}")
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


def make_synthetic_dataset(spec: SyntheticSpec, seed=None):
    """Deterministic synthetic graphs, drawn from ``spec.seed``; classes balanced
    by construction. ``seed``, when given, must equal ``spec.seed``.

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
    if seed is not None and seed != spec.seed:
        raise ValueError(f"seed {seed} differs from the spec's seed {spec.seed}")
    rng = np.random.default_rng(spec.seed)
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
