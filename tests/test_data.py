import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgraph.data import (
    DatasetFormatError,
    Graph,
    GraphBatch,
    SyntheticSpec,
    load_tu_dataset,
    make_splits,
    make_synthetic_dataset,
    save_tu_dataset,
)


def write_fixture(tmp_path, name="TOY", node_labels=None, attributes=None):
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n2\n2\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    if node_labels is not None:
        (tmp_path / f"{name}_node_labels.txt").write_text(node_labels)
    if attributes is not None:
        (tmp_path / f"{name}_node_attributes.txt").write_text(attributes)
    return str(tmp_path)


def test_load_minimal_fixture(tmp_path):
    graphs = load_tu_dataset(write_fixture(tmp_path), "TOY")
    assert len(graphs) == 2
    for g in graphs:
        assert g.node_count == 2
        assert g.edges == [(0, 1)]
        np.testing.assert_array_equal(g.features, np.ones((2, 1)))
    assert sorted(g.label for g in graphs) == [0, 1]
    # original label 1 sorts after -1, so graph 0 (label 1) remaps to 1
    assert graphs[0].label == 1 and graphs[1].label == 0


def test_load_missing_file_names_it(tmp_path):
    write_fixture(tmp_path)
    (tmp_path / "TOY_graph_labels.txt").unlink()
    with pytest.raises(DatasetFormatError, match="TOY_graph_labels.txt"):
        load_tu_dataset(str(tmp_path), "TOY")


def test_load_cross_graph_edge_reports_line(tmp_path):
    write_fixture(tmp_path)
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, 1\n3, 4\n2, 3\n")
    with pytest.raises(DatasetFormatError, match="TOY_A.txt:4"):
        load_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize(
    "filename,content,message",
    [
        ("graph_indicator", "1\n1\n3\n3\n", r"TOY_graph_indicator.txt:3: graph id 3 skips graph 2"),
        ("graph_indicator", "0\n0\n1\n1\n", r"TOY_graph_indicator.txt:1: bad graph id '0'"),
        ("graph_labels", "1\nx\n", r"TOY_graph_labels.txt:2: bad graph label 'x'"),
        ("node_labels", "7\n9\n9.5\n7\n", r"TOY_node_labels.txt:3: bad node label '9.5'"),
        ("node_attributes", "0.5\n1.5, 2.0\n2.5\n3.5\n",
         r"TOY_node_attributes.txt:2: attribute row '1.5, 2.0' has 2 fields, expected 1"),
        ("node_attributes", "0.5\n1.5\n\nabc\n3.5\n", r"TOY_node_attributes.txt:4: bad attribute row"),
        ("A", "1, 2\n2, 1\n3, 4\n4, y\n", r"TOY_A.txt:4: bad edge '4, y'"),
        ("A", "1, 2\n\n2, 1\n3, 4\n4, z\n", r"TOY_A.txt:5: bad edge '4, z'"),
        ("A", "1, 2\n2, 1\n3, 4, 4\n4, 3\n",
         r"TOY_A.txt:3: edge '3, 4, 4' has 3 fields, expected 2"),
        ("A", "1, 2\n2, 1\n\n3, 5\n", r"TOY_A.txt:4: node id outside dataset range"),
        ("A", "1, 2\n2, 1\n ,\n3, 4\n4, 3\n", r"TOY_A.txt:3: bad edge ','"),
        ("graph_indicator", "1\n" * 4999 + "q\n" + "2\n" * 10,
         r"TOY_graph_indicator.txt:5000: bad graph id 'q'"),
        ("graph_indicator", "1\n\n" * 1000 + "2\n" * 2999 + "0\n",
         r"TOY_graph_indicator.txt:5000: bad graph id '0'"),
        ("node_attributes", "0.5\n1.5\nnan\n3.5\n",
         r"TOY_node_attributes.txt:3: non-finite attribute in 'nan'"),
        ("node_attributes", "0.5, 1\n1.5, -inf\n2.5, 1\n3.5, 1\n",
         r"TOY_node_attributes.txt:2: non-finite attribute in '1.5, -inf'"),
        ("node_attributes", "0.5\n\n1.5\n2.5\n1e400\n",
         r"TOY_node_attributes.txt:5: non-finite attribute in '1e400'"),
    ],
    ids=["graph_id_gap", "graph_id_zero", "graph_label", "node_label", "ragged_attributes",
         "non_numeric_attributes", "edge_node_id", "edge_node_id_after_blank_line",
         "edge_three_ids", "edge_node_id_out_of_range", "edge_line_of_commas",
         "graph_id_line_5000", "graph_id_zero_line_5000", "nan_attribute", "infinite_attribute",
         "overflowing_attribute"],
)
def test_malformed_file_reports_file_and_line(tmp_path, filename, content, message):
    write_fixture(tmp_path)
    (tmp_path / f"TOY_{filename}.txt").write_text(content)
    with pytest.raises(DatasetFormatError, match=message):
        load_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize(
    "filename,content",
    [
        ("A", "1 2\n2 1\n3 4\n4 3\n"),
        ("A", "1\t2\n2  1\n\n 3 ,4\n4,3\n"),
        ("graph_labels", "1_0\n9\n"),
        ("A", "1, \uff12\n2, 1\n3, 4\n4, 3\n"),
    ],
    ids=["spaces", "mixed", "underscore", "full_width_digit"],
)
def test_fields_np_loadtxt_rejects_fail_at_line_1(tmp_path, filename, content):
    # Python's int() reads each of these lines, the comma-separated grammar does not
    write_fixture(tmp_path)
    (tmp_path / f"TOY_{filename}.txt").write_text(content)
    with pytest.raises(DatasetFormatError, match=rf"TOY_{filename}.txt:1: bad "):
        load_tu_dataset(str(tmp_path), "TOY")


def test_blank_lines_of_spaces_are_skipped_but_counted(tmp_path):
    expected = load_tu_dataset(write_fixture(tmp_path), "TOY")
    (tmp_path / "TOY_A.txt").write_text("1, 2\n  \n2, 1\n\t\n3, 4\n\xa0\n4, 3\n")
    assert [g.edges for g in load_tu_dataset(str(tmp_path), "TOY")] == [g.edges for g in expected]
    (tmp_path / "TOY_A.txt").write_text("1, 2\n  \n2, 1\n3, 4\n4, y\n")
    with pytest.raises(DatasetFormatError, match=r"TOY_A.txt:5: bad edge '4, y'"):
        load_tu_dataset(str(tmp_path), "TOY")
    (tmp_path / "TOY_A.txt").write_text(" \n")
    assert [g.edges for g in load_tu_dataset(str(tmp_path), "TOY")] == [[], []]


def test_interleaved_graph_ids_keep_file_order(tmp_path):
    # nodes of three graphs interleaved in the indicator file: each graph keeps
    # its nodes in file order, and its edges follow them
    graph_ids = np.random.default_rng(3).integers(1, 4, size=300)
    members = [np.flatnonzero(graph_ids == g) for g in (1, 2, 3)]
    chains = [(a + 1, b + 1) for nodes in members for a, b in zip(nodes[:-1], nodes[1:])]
    (tmp_path / "IL_graph_indicator.txt").write_text("".join(f"{g}\n" for g in graph_ids))
    (tmp_path / "IL_graph_labels.txt").write_text("0\n1\n0\n")
    (tmp_path / "IL_A.txt").write_text("".join(f"{b}, {a}\n{a}, {b}\n" for a, b in chains))
    (tmp_path / "IL_node_attributes.txt").write_text("".join(f"{i}.0\n" for i in range(300)))
    graphs = load_tu_dataset(str(tmp_path), "IL")
    for g, nodes in zip(graphs, members):
        np.testing.assert_array_equal(g.features[:, 0], nodes)
        assert g.edges == [(i, i + 1) for i in range(len(nodes) - 1)]


def test_empty_node_labels_falls_back_to_attributes(tmp_path):
    d = write_fixture(tmp_path, node_labels="", attributes="0.5\n1.5\n2.5\n3.5\n")
    graphs = load_tu_dataset(d, "TOY")
    np.testing.assert_array_equal(graphs[0].features, [[0.5], [1.5]])
    np.testing.assert_array_equal(graphs[1].features, [[2.5], [3.5]])


def test_label_onehot_concatenated_with_attributes(tmp_path):
    d = write_fixture(tmp_path, node_labels="7\n9\n9\n7\n", attributes="0.5\n1.5\n2.5\n3.5\n")
    graphs = load_tu_dataset(d, "TOY")
    np.testing.assert_array_equal(graphs[0].features, [[1.0, 0.0, 0.5], [0.0, 1.0, 1.5]])
    np.testing.assert_array_equal(graphs[1].features, [[0.0, 1.0, 2.5], [1.0, 0.0, 3.5]])


def test_tu_round_trip(tmp_path):
    spec = SyntheticSpec(
        classes=2, graphs_per_class=5, nodes_min=3, nodes_max=7,
        topology="cycle_vs_star", feature_dim=3, noise_sigma=0.5, seed=11,
    )
    graphs = make_synthetic_dataset(spec)
    out = tmp_path / "rt"
    save_tu_dataset(graphs, str(out), "RT")
    reloaded = load_tu_dataset(str(out), "RT")
    assert len(reloaded) == len(graphs)
    for a, b in zip(graphs, reloaded):
        assert a.node_count == b.node_count
        assert sorted(a.edges) == sorted(b.edges)
        assert a.label == b.label
        np.testing.assert_array_equal(a.features, b.features)


@st.composite
def tu_datasets(draw):
    """Graphs with self-loops, isolated nodes and one-node graphs, as saved."""
    dim = draw(st.integers(min_value=1, max_value=3))
    graphs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=6))
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                               min_size=n * dim, max_size=n * dim))
        label = draw(st.integers(min_value=-3, max_value=3))
        graphs.append(Graph(n, edges, np.array(values).reshape(n, dim), label))
    return graphs


@settings(max_examples=60, deadline=None)
@given(graphs=tu_datasets())
def test_tu_round_trip_property(tmp_path_factory, graphs):
    out = tmp_path_factory.mktemp("rt")
    save_tu_dataset(graphs, str(out), "RT")
    reloaded = load_tu_dataset(str(out), "RT")
    classes = sorted({g.label for g in graphs})
    assert len(reloaded) == len(graphs)
    for a, b in zip(graphs, reloaded):
        assert b.node_count == a.node_count
        assert b.edges == sorted(a.edges)
        assert b.label == classes.index(a.label)
        assert b.features.dtype == np.float64
        assert b.features.tobytes() == a.features.tobytes()  # exact, -0.0 too


@given(graphs=tu_datasets())
def test_tu_round_trip_graphs_pass_validate(tmp_path_factory, graphs):
    out = tmp_path_factory.mktemp("rt")
    save_tu_dataset(graphs, str(out), "RT")
    batch = GraphBatch(load_tu_dataset(str(out), "RT"))  # raises on a malformed graph
    loops = sum(u == v for g in graphs for u, v in g.edges)
    assert batch.adjacency.nnz == 2 * sum(len(g.edges) for g in graphs) - loops


TU_FILES = ("graph_indicator", "graph_labels", "A", "node_labels", "node_attributes")
BAD_TOKENS = ("x", "1x", "--1", "1.5.2", "0x1f", "#", "1_0", "\uff11", "nan")


@settings(max_examples=60, deadline=None)
@given(graphs=tu_datasets(), data=st.data())
def test_bad_token_is_reported_at_its_file_and_line(tmp_path_factory, graphs, data):
    out = tmp_path_factory.mktemp("bad")
    save_tu_dataset(graphs, str(out), "RT")
    nodes = sum(g.node_count for g in graphs)
    node_labels = data.draw(st.lists(st.integers(-3, 3), min_size=nodes, max_size=nodes))
    (out / "RT_node_labels.txt").write_text("".join(f"{x}\n" for x in node_labels))
    load_tu_dataset(str(out), "RT")
    name = data.draw(st.sampled_from([f for f in TU_FILES if (out / f"RT_{f}.txt").read_text()]))
    path = out / f"RT_{name}.txt"
    lines = path.read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(", ")
    fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(BAD_TOKENS))
    lines[row] = ", ".join(fields)
    blank = data.draw(st.integers(0, len(lines)))  # a blank line still counts as a line
    lines.insert(blank, "")
    path.write_text("\n".join(lines) + "\n")
    lineno = row + 1 + (blank <= row)
    with pytest.raises(DatasetFormatError, match=re.escape(f"RT_{name}.txt:{lineno}: ")):
        load_tu_dataset(str(out), "RT")


def test_synthetic_noise_free_classes_are_constant():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=4, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0, seed=3,
    )
    graphs = make_synthetic_dataset(spec)
    for g in graphs:
        expected = np.zeros(2)
        expected[g.label % 2] = 2.0
        np.testing.assert_array_equal(g.features, np.tile(expected, (g.node_count, 1)))
    # star graphs have a hub of degree n-1, cycles are 2-regular
    for g in graphs:
        degs = np.zeros(g.node_count)
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        if g.label == 0:
            assert set(degs) == {2.0}
        else:
            assert degs.max() == g.node_count - 1


def test_synthetic_determinism():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=10, nodes_min=4, nodes_max=9,
        topology="ambiguous_features", feature_dim=4, noise_sigma=1.5, seed=42,
    )
    a = make_synthetic_dataset(spec)
    b = make_synthetic_dataset(spec, seed=42)
    for ga, gb in zip(a, b):
        assert ga.node_count == gb.node_count and ga.edges == gb.edges
        np.testing.assert_array_equal(ga.features, gb.features)
    # the graphs come from the spec's seed
    c = make_synthetic_dataset(dataclasses.replace(spec, seed=43))
    assert not all(np.array_equal(ga.features, gc.features) for ga, gc in zip(a, c))
    with pytest.raises(ValueError, match="seed 43 differs from the spec's seed 42"):
        make_synthetic_dataset(spec, seed=43)


def test_synthetic_rejects_degenerate_spec():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=0, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0,
    )
    with pytest.raises(ValueError, match="0 samples"):
        make_synthetic_dataset(spec)


def test_synthetic_classes_balanced():
    spec = SyntheticSpec(
        classes=3, graphs_per_class=7, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=3, noise_sigma=0.1, seed=5,
    )
    graphs = make_synthetic_dataset(spec)
    counts = np.bincount([g.label for g in graphs])
    assert counts.tolist() == [7, 7, 7]


def test_batch_preserves_edge_counts_and_offsets():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.3, seed=9,
    )
    graphs = make_synthetic_dataset(spec)
    batch = GraphBatch(graphs)
    assert batch.adjacency.nnz == 2 * sum(len(g.edges) for g in graphs)
    assert batch.node_offsets[-1] == sum(g.node_count for g in graphs)
    assert np.all(np.diff(batch.node_offsets) > 0)
    assert batch.features.shape[0] == batch.total_nodes


def test_batch_aggregated_features_are_a_read_only_product():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
        topology="ambiguous_features", feature_dim=3, noise_sigma=0.3, seed=4,
    )
    batch = GraphBatch(make_synthetic_dataset(spec))
    np.testing.assert_array_equal(batch.aggregated_features, batch.adjacency @ batch.features)
    for constant in (batch.aggregated_features, batch.features):
        assert not constant.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            constant[0, 0] = 1.0


def test_batch_rejects_empty_graph():
    graphs = [Graph(2, [(0, 1)], np.ones((2, 2)), 0), Graph(0, [], np.ones((0, 2)), 1),
              Graph(2, [], np.ones((2, 2)), 0)]
    with pytest.raises(ValueError, match="graph 1 .*no nodes"):
        GraphBatch(graphs)


def test_make_splits_small_example():
    plan = make_splits(10, test_fraction=0.1, k=3, seed=0)
    assert len(plan.test_indices) == 1
    assert [len(v) for v in plan.fold_validation] == [3, 3, 3]


def test_make_splits_rejects_tiny_dataset():
    with pytest.raises(ValueError):
        make_splits(5, test_fraction=0.2, k=4, seed=0)


def test_make_splits_deterministic_and_stratified():
    labels = [0] * 40 + [1] * 40
    a = make_splits(80, 0.25, 4, seed=7, labels=labels)
    b = make_splits(80, 0.25, 4, seed=7, labels=labels)
    assert a == b
    test_labels = [labels[i] for i in a.test_indices]
    assert test_labels.count(0) == 10 and test_labels.count(1) == 10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    k=st.integers(min_value=2, max_value=10),
    test_fraction=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_partition_property(n, k, test_fraction, seed):
    if n < k + 2:
        return
    try:
        plan = make_splits(n, test_fraction, k, seed)
    except ValueError:
        return
    non_test = sorted(set(range(n)) - set(plan.test_indices))
    all_val = sorted(x for fold in plan.fold_validation for x in fold)
    assert all_val == non_test
    for train, val in zip(plan.fold_train, plan.fold_validation):
        assert not set(train) & set(val)
        assert not set(train) & set(plan.test_indices)
        assert sorted(train + val) == non_test


def test_graph_validate_rejects_out_of_range_edge():
    # stacked unchecked, edge (0, 5) would join graph 0 to node 3 of graph 1
    graphs = [Graph(2, [(0, 5)], np.ones((2, 1)), 0), Graph(6, [], np.ones((6, 1)), 1)]
    message = r"graph 0 of the batch has edge \(0, 5\) outside \[0, 2\)"
    with pytest.raises(ValueError, match=message):
        GraphBatch(graphs)


@pytest.mark.parametrize(
    "edges,repeat",
    [([(0, 1), (1, 0)], "(1, 0)"), ([(1, 2), (0, 1), (1, 2)], "(1, 2)"),
     ([(2, 2), (0, 1), (2, 2)], "(2, 2)")],
    ids=["reversed", "repeated", "self_loop"],
)
def test_batch_rejects_repeated_edge(edges, repeat):
    # stacked unchecked, the repeat would give its edge weight 2
    graphs = [Graph(3, [(0, 1)], np.ones((3, 1)), 0), Graph(3, edges, np.ones((3, 1)), 1)]
    with pytest.raises(ValueError, match="graph 1 of the batch repeats edge " + re.escape(repeat)):
        GraphBatch(graphs)


@pytest.mark.parametrize("rows", [1, 3])
def test_batch_rejects_feature_rows_other_than_node_count(rows):
    # stacked unchecked, every later graph's features would shift
    graphs = [Graph(2, [(0, 1)], np.ones((2, 1)), 0), Graph(2, [(0, 1)], np.ones((rows, 1)), 1),
              Graph(2, [], np.ones((2, 1)), 0)]
    message = f"graph 1 of the batch has {rows} feature rows for 2 nodes"
    with pytest.raises(ValueError, match=message):
        GraphBatch(graphs)
