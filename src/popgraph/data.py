"""Graph samples, TU-format dataset ingestion, synthetic data, and splits.

The TU text format: ``<name>_A.txt`` lists 1-based comma-separated edge
pairs (each undirected edge in both directions), ``<name>_graph_indicator.txt``
gives the 1-based graph id of every node, ``<name>_graph_labels.txt`` one
label per graph. ``<name>_node_labels.txt`` and ``<name>_node_attributes.txt``
are optional. The loader deduplicates edges to single undirected storage and
remaps graph labels to a contiguous [0, C) range.

Every file is UTF-8, whatever the locale, and has one grammar: one row per
line, in ASCII, fields separated by commas and read as ``np.loadtxt`` reads
them (an integer is an optional sign and digits), blank lines (of any Unicode
whitespace) skipped but counted, and every node attribute finite.
Each file is parsed as one array, and nodes, edges and features are grouped
per graph with array operations. A malformed file raises
:class:`DatasetFormatError` naming the file and, where one line is at fault,
the first such line: only then are the lines parsed one at a time.
"""

import itertools
import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DatasetFormatError(ValueError):
    """A dataset file is missing or malformed."""


def check_real(name: str, value, minimum=None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real
    number, not a bool, and at least ``minimum`` when one is given."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))):
        raise ValueError(f"{name}={value!r} is not a finite real number")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}={value!r} is below {minimum}")


def check_integer(name: str, value, minimum=None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a Python or
    numpy integer, not a bool, and at least ``minimum`` when one is given."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name}={value!r} is not an integer")
    check_real(name, value, minimum)


def whole_numbers(values, message) -> np.ndarray:
    """``values`` as ``np.intp``. Raises ``ValueError(message(i))`` for the
    first index ``i`` along the first axis whose entry, or any entry of whose
    row, is not a whole number (NaN and inf included)."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to arbitrary integers
        whole = values.astype(np.intp)
    bad = whole != values
    bad = np.flatnonzero(bad.any(axis=1) if bad.ndim == 2 else bad)
    if bad.size:
        raise ValueError(message(int(bad[0])))
    return whole


NODE_JITTER_SIGMA = 0.25  # per-node noise in the "ambiguous_features" generator

TOPOLOGIES = ("cycle_vs_star", "ambiguous_features")


@dataclass
class Graph:
    """One input sample: undirected topology, one feature row per node, and a label."""

    edges: list | np.ndarray  # local (u, v), each undirected edge once: pairs or an (e, 2) array
    features: np.ndarray
    label: int

    @property
    def node_count(self) -> int:
        return len(self.features)


class GraphBatch:
    """Graphs stacked as one disconnected graph: the in-memory form of a
    dataset, and the population of one step.

    ``node_offsets`` and ``edge_offsets`` are prefix indices into the stacked
    node rows and ``edges``, (E, 2) local (u, v) pairs. ``features`` is the
    float64 array of the node rows. ``adjacency`` is the batch-global CSR
    adjacency: each undirected edge contributes both directions, a self-loop
    one entry, and :func:`save_tu_dataset` writes these entries. Graph g's
    node rows are ``node_offsets[g]:node_offsets[g + 1]``: the offsets are the
    one record of which rows each graph pools. The arrays are read-only. A
    batch is a sequence of graphs: ``batch[g]`` is a :class:`Graph` of views.
    A graph's nodes are its feature rows. Every graph must have 2-D features
    (an array or equal-width lists) of real numbers, at least one row, finite
    entries, and as many columns as graph 0 and at least one; a label that is
    a whole number; and (u, v) pairs of whole numbers as edges, between its
    own nodes, each undirected edge once; a ``ValueError`` names the first
    that does not. Edges of an integer dtype are taken as they are.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise ValueError("GraphBatch needs at least one graph")
        edges, node_rows = [], []
        for g, graph in enumerate(graphs):
            try:
                features = np.asarray(graph.features)
            except ValueError:  # ragged: numpy makes no array of it
                raise ValueError(f"graph {g} of the batch has ragged feature rows") from None
            try:
                e = np.asarray(graph.edges)
            except ValueError:
                raise ValueError(
                    f"graph {g} of the batch has edges that are not (u, v) pairs") from None
            if features.ndim != 2:
                raise ValueError(f"graph {g} of the batch has features of shape {features.shape}, "
                                 "not a 2-D array of one row per node")
            if features.dtype.kind not in "biuf":
                raise ValueError(f"graph {g} of the batch has features of dtype {features.dtype}, "
                                 "not real numbers")
            if e.shape != (0,) and (e.ndim != 2 or e.shape[1] != 2):
                raise ValueError(f"graph {g} of the batch has edges of shape {e.shape}, "
                                 "not (u, v) pairs")
            if e.dtype.kind not in "iuf":
                raise ValueError(f"graph {g} of the batch has edges of dtype {e.dtype}, "
                                 "not node indices")
            edges.append(e.reshape(-1, 2))
            node_rows.append(features)
        counts, widths = np.array([f.shape for f in node_rows], dtype=np.intp).T
        bad = np.flatnonzero(widths != widths[0])
        if bad.size:
            g = int(bad[0])
            raise ValueError(
                f"graph {g} of the batch has {widths[g]} feature columns, graph 0 has {widths[0]}")
        self._stack(counts, np.concatenate(edges), [len(e) for e in edges],
                    np.concatenate(node_rows), [g.label for g in graphs])

    @classmethod
    def _stacked(cls, node_counts, edges, edge_counts, features, labels):
        """A batch of arrays stacked graph by graph, checked as ``__init__`` checks."""
        batch = cls.__new__(cls)
        batch._stack(node_counts, edges, edge_counts, features, labels)
        return batch

    def _stack(self, node_counts, edges, edge_counts, features, labels):
        empty = np.flatnonzero(node_counts <= 0)
        if empty.size:
            raise ValueError(f"graph {int(empty[0])} of the batch has no nodes")
        self.node_offsets = np.concatenate([[0], np.cumsum(node_counts)]).astype(np.intp)
        self.edge_offsets = np.concatenate([[0], np.cumsum(edge_counts)]).astype(np.intp)
        self.labels = whole_numbers(labels, lambda g: f"graph {g} of the batch has label "
                                    f"{labels[g]}, not a whole number")
        if features.shape[1] == 0:  # saved, they would load back as the constant feature 1
            raise ValueError("the batch's node features have no columns")
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if bad.size:  # the loader rejects it; f1 would carry it to every parameter
            g = np.searchsorted(self.node_offsets, bad[0], side="right") - 1
            raise ValueError(f"graph {g} of the batch has a non-finite feature")
        n = self.total_nodes
        edge_graph = np.repeat(np.arange(len(node_counts)), edge_counts)
        if edges.dtype.kind in "iu":  # the loader's and the generator's edges: no pass
            edges = edges.astype(np.intp, copy=False)
        else:
            edges = whole_numbers(edges, lambda e: f"graph {edge_graph[e]} of the batch has edge "
                                  f"({edges[e, 0]}, {edges[e, 1]}), not a pair of whole numbers")
        bad = np.flatnonzero(((edges < 0) | (edges >= node_counts[edge_graph, None])).any(axis=1))
        if bad.size:
            g, (a, b) = edge_graph[bad[0]], edges[bad[0]]
            raise ValueError(
                f"graph {g} of the batch has edge ({a}, {b}) outside [0, {node_counts[g]})")
        u, v = (edges + self.node_offsets[edge_graph, None]).T
        loop = u == v
        rows = np.concatenate([v, u[~loop]])
        cols = np.concatenate([u, v[~loop]])
        self.adjacency = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n))
        if self.adjacency.nnz < rows.size:  # the CSR conversion summed a repeated entry
            keys = np.minimum(u, v) * n + np.maximum(u, v)
            order = np.argsort(keys, kind="stable")
            e = order[1:][np.diff(keys[order]) == 0].min()
            g, (a, b) = edge_graph[e], edges[e]
            raise ValueError(f"graph {g} of the batch repeats edge ({a}, {b})")
        self.edges = edges
        self.features = np.asarray(features, dtype=np.float64)
        for constant in (self.edges, self.features):
            constant.setflags(write=False)

    def __len__(self):
        return self.labels.size

    def __getitem__(self, g):
        g = range(len(self))[g]  # a negative g counts from the end; IndexError ends iteration
        start, stop = self.node_offsets[g:g + 2]
        return Graph(edges=self.edges[self.edge_offsets[g]:self.edge_offsets[g + 1]],
                     features=self.features[start:stop], label=int(self.labels[g]))

    @property
    def graphs(self):
        """The batch itself: kept only for ``perfbench/`` until a benchmark-only change drops it."""
        return self

    @property
    def total_nodes(self) -> int:
        return int(self.node_offsets[-1])


@dataclass
class SplitPlan:
    """A fixed test split plus k train/validation folds over the rest."""

    test_indices: list
    fold_train: list
    fold_validation: list


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
        for name, minimum in (("classes", 2), ("graphs_per_class", 1), ("nodes_min", 3),
                              ("nodes_max", None), ("feature_dim", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        check_real("noise_sigma", self.noise_sigma, 0)
        if self.nodes_min > self.nodes_max:
            raise ValueError(f"synthetic spec: nodes_min={self.nodes_min} is above "
                             f"nodes_max={self.nodes_max}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}")
        # class c's graphs are set by (c % 2, c % feature_dim) in cycle_vs_star, and
        # past two classes by c % feature_dim in ambiguous_features
        period = (math.lcm(2, self.feature_dim) if self.topology == "cycle_vs_star"
                  else max(2, self.feature_dim))
        if self.classes > period:
            raise ValueError(f"synthetic spec: classes 0 and {period} are drawn from one "
                             f"distribution ({self.topology}, feature_dim {self.feature_dim})")


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8 whatever the locale."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise DatasetFormatError(f"{path}:{lineno}: not UTF-8 text") from None


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
    if not text.isascii():  # numpy's parse of a non-ASCII digit depends on the locale
        for lineno, line in _numbered(text):
            if not line.isascii():
                raise DatasetFormatError(f"{path}:{lineno}: bad {what} {line!r}")
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
    """Load a TU-format dataset into a :class:`GraphBatch`.

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
    # the ids present, sorted: no array is sized by the largest id before a
    # gap is ruled out, so a huge id is reported rather than allocated
    present = np.unique(graph_of_node)
    num_graphs = present.size
    if present[-1] != num_graphs - 1:
        missing = int(np.argmax(present != np.arange(num_graphs)))
        lineno, line = _line_of_row(indicator_text, np.argmax(graph_of_node > missing))
        raise DatasetFormatError(
            f"{indicator_path}:{lineno}: graph id {line} skips graph {missing + 1}, "
            "which has no nodes"
        )
    total_nodes = graph_of_node.size
    node_counts = np.bincount(graph_of_node, minlength=num_graphs)
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
    labels = np.unique(raw_labels, return_inverse=True)[1].reshape(-1)

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
    edges = np.column_stack([lo, hi]) - offsets[edge_graph, None]

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
        features = np.concatenate(blocks, axis=1)
    else:
        features = np.ones((total_nodes, 1))
    return GraphBatch._stacked(node_counts, edges, np.bincount(edge_graph, minlength=num_graphs),
                               features[order], labels)


def save_tu_dataset(batch: GraphBatch, directory: str, name: str) -> None:
    """Write a batch as TU files, its features as node attributes in ``repr``.

    ``A.txt`` holds the entries of ``batch.adjacency``, 1-based, in its CSR
    order: each undirected edge both ways, a self-loop once. A batch holds
    only graphs the loader accepts, so the files load back.
    """
    adjacency = batch.adjacency.tocoo()
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    columns = {
        "graph_indicator": np.repeat(np.arange(1, len(batch) + 1), np.diff(batch.node_offsets)),
        "graph_labels": batch.labels,
        "A": np.column_stack([adjacency.row, adjacency.col]) + 1,
    }
    for suffix, values in columns.items():
        with open(f"{prefix}_{suffix}.txt", "w", encoding="utf-8") as fh:
            np.savetxt(fh, values, fmt="%d", delimiter=", ")
    with open(f"{prefix}_node_attributes.txt", "w", encoding="utf-8") as fh:
        fh.writelines(", ".join(map(repr, row)) + "\n" for row in batch.features.tolist())


def make_synthetic_dataset(spec: SyntheticSpec, seed=None) -> GraphBatch:
    """Deterministic synthetic graphs, drawn from ``spec.seed`` one at a time
    and stacked; classes balanced by construction. ``seed``, when given, must
    equal ``spec.seed``.

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
            i = np.arange(n)
            edges = np.sort(np.column_stack([i, (i + 1) % n]), axis=1)  # a ring
            mean = np.zeros(spec.feature_dim)
            if spec.topology == "cycle_vs_star":
                if c % 2:
                    edges = np.column_stack([np.zeros_like(i[1:]), i[1:]])  # a star
                mean[c % spec.feature_dim] = 2.0
                feats = mean + spec.noise_sigma * rng.normal(size=(n, spec.feature_dim))
            else:  # ambiguous_features
                if spec.classes == 2:
                    mean[0] = 1.0 if c == 0 else -1.0
                else:
                    mean[c % spec.feature_dim] = 1.0
                offset = spec.noise_sigma * rng.normal(size=spec.feature_dim)
                feats = mean + offset + NODE_JITTER_SIGMA * rng.normal(size=(n, spec.feature_dim))
            graphs.append(Graph(edges=edges, features=feats, label=c))
    return GraphBatch(graphs)


def make_splits(n: int, test_fraction: float, k: int, seed: int, labels=None) -> SplitPlan:
    """Fixed test split plus k folds over the rest, label-stratified when given.

    The test set is drawn once; remaining indices are dealt into k folds,
    each serving once as validation while the others train. Raises
    ``ValueError`` naming an ``n``, ``k`` or ``seed`` that is not an integer,
    a ``test_fraction`` that is not a real number, any of them out of range,
    the shape of ``labels`` other than (n,), and the first index whose label
    is NaN or infinite, which no class would claim.
    """
    check_integer("n", n)
    check_integer("k", k, 2)
    check_integer("seed", seed, 0)
    check_real("test_fraction", test_fraction)
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    if n < k + 2:
        raise ValueError(f"dataset of size {n} too small for k={k}")
    rng = np.random.default_rng(seed)
    if labels is None:
        groups = [np.arange(n)]
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError(f"labels of shape {labels.shape} for n={n}, expected shape {(n,)}")
        if np.issubdtype(labels.dtype, np.inexact) and not np.isfinite(labels).all():
            i = int(np.argmin(np.isfinite(labels)))
            raise ValueError(f"label {labels[i]} at index {i} is not finite")
        groups = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]

    test, pools = [], []
    for group in groups:
        rng.shuffle(group)
        t = int(round(test_fraction * group.size))
        t = min(t, max(0, group.size - k))  # each group keeps min(size, k): the pool holds >= k
        test.append(group[:t])
        pools.append(group[t:])
    pool = np.concatenate(pools)
    fold = np.arange(pool.size) % k  # round-robin keeps folds stratified too
    return SplitPlan(
        test_indices=np.sort(np.concatenate(test)).tolist(),
        fold_train=[np.sort(pool[fold != f]).tolist() for f in range(k)],
        fold_validation=[np.sort(pool[fold == f]).tolist() for f in range(k)],
    )
