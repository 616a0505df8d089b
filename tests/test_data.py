import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgraph
from popgraph.data import (
    DatasetFormatError,
    Graph,
    GraphBatch,
    SyntheticSpec,
    check_integer,
    check_real,
    load_tu_dataset,
    make_splits,
    make_synthetic_dataset,
    save_tu_dataset,
)
from popgraph.node_level import node_blocks


def write_fixture(tmp_path, name="TOY", node_labels=None, attributes=None):
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n", encoding="utf-8")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n2\n2\n", encoding="utf-8")
    (tmp_path / f"{name}_graph_labels.txt").write_text("1\n-1\n", encoding="utf-8")
    if node_labels is not None:
        (tmp_path / f"{name}_node_labels.txt").write_text(node_labels, encoding="utf-8")
    if attributes is not None:
        (tmp_path / f"{name}_node_attributes.txt").write_text(attributes, encoding="utf-8")
    return str(tmp_path)


def edge_lists(graphs):
    return [g.edges.tolist() for g in graphs]


def test_load_minimal_fixture(tmp_path):
    graphs = load_tu_dataset(write_fixture(tmp_path), "TOY")
    assert len(graphs) == 2
    assert edge_lists(graphs) == [[[0, 1]], [[0, 1]]]
    for g in graphs:
        assert g.node_count == 2
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
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, 1\n3, 4\n2, 3\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="TOY_A.txt:4"):
        load_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize(
    "filename,content,message",
    [
        ("graph_indicator", "1\n1\n3\n3\n", r"TOY_graph_indicator.txt:3: graph id 3 skips graph 2"),
        # a count per id up to this one would need 728 TiB
        ("graph_indicator", "1\n1\n100000000000000\n",
         r"TOY_graph_indicator.txt:3: graph id 100000000000000 skips graph 2, "
         "which has no nodes"),
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
    ids=["graph_id_gap", "graph_id_huge", "graph_id_zero", "graph_label", "node_label",
         "ragged_attributes", "non_numeric_attributes", "edge_node_id",
         "edge_node_id_after_blank_line", "edge_three_ids", "edge_node_id_out_of_range",
         "edge_line_of_commas",
         "graph_id_line_5000", "graph_id_zero_line_5000", "nan_attribute", "infinite_attribute",
         "overflowing_attribute"],
)
def test_malformed_file_reports_file_and_line(tmp_path, filename, content, message):
    write_fixture(tmp_path)
    (tmp_path / f"TOY_{filename}.txt").write_text(content, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=message):
        load_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize(
    "filename,content,message",
    [
        ("graph_indicator", "\n", "TOY_graph_indicator.txt: no nodes"),
        ("graph_labels", "1\n-1\n0\n", "TOY_graph_labels.txt: 3 labels for 2 graphs"),
        ("node_labels", "7\n9\n9\n", "TOY_node_labels.txt: 3 rows for 4 nodes"),
        ("node_attributes", "0.5\n1.5\n2.5\n3.5\n4.5\n",
         "TOY_node_attributes.txt: 5 rows for 4 nodes"),
    ],
    ids=["no_nodes", "labels", "node_labels", "node_attributes"],
)
def test_a_file_of_the_wrong_length_is_reported(tmp_path, filename, content, message):
    write_fixture(tmp_path)
    (tmp_path / f"TOY_{filename}.txt").write_text(content, encoding="utf-8")
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
    (tmp_path / f"TOY_{filename}.txt").write_text(content, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=rf"TOY_{filename}.txt:1: bad "):
        load_tu_dataset(str(tmp_path), "TOY")


def test_blank_lines_of_spaces_are_skipped_but_counted(tmp_path):
    expected = load_tu_dataset(write_fixture(tmp_path), "TOY")
    (tmp_path / "TOY_A.txt").write_text("1, 2\n  \n2, 1\n\t\n3, 4\n\xa0\n4, 3\n", encoding="utf-8")
    assert edge_lists(load_tu_dataset(str(tmp_path), "TOY")) == edge_lists(expected)
    (tmp_path / "TOY_A.txt").write_text("1, 2\n  \n2, 1\n3, 4\n4, y\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"TOY_A.txt:5: bad edge '4, y'"):
        load_tu_dataset(str(tmp_path), "TOY")
    (tmp_path / "TOY_A.txt").write_text(" \n", encoding="utf-8")
    assert edge_lists(load_tu_dataset(str(tmp_path), "TOY")) == [[], []]


def test_a_file_that_is_not_utf8_is_reported_at_its_line(tmp_path):
    write_fixture(tmp_path)
    (tmp_path / "TOY_graph_indicator.txt").write_bytes(b"1\n1\n\xff\n2\n")
    with pytest.raises(DatasetFormatError, match="TOY_graph_indicator.txt:3: not UTF-8"):
        load_tu_dataset(str(tmp_path), "TOY")


LOCALE_PROBE = """
import sys
from popgraph.data import DatasetFormatError, load_tu_dataset
sys.stdout.reconfigure(encoding="utf-8")
try:
    load_tu_dataset(sys.argv[1], "TOY")
except DatasetFormatError as err:
    print(err)
"""


def test_a_non_ascii_line_is_a_bad_row_under_the_c_locale(tmp_path):
    # there numpy reads the full-width digit in "1, \uff12" as 65250
    write_fixture(tmp_path)
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, 1\n\u3000\n1, \uff12\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(popgraph.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", LOCALE_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, encoding="utf-8", timeout=60,
                         check=True)
    assert run.stdout.endswith("TOY_A.txt:4: bad edge '1, \uff12'\n")


def test_interleaved_graph_ids_keep_file_order(tmp_path):
    # nodes of three graphs interleaved in the indicator file: each graph keeps
    # its nodes in file order, and its edges follow them
    graph_ids = np.random.default_rng(3).integers(1, 4, size=300)
    members = [np.flatnonzero(graph_ids == g) for g in (1, 2, 3)]
    chains = [(a + 1, b + 1) for nodes in members for a, b in zip(nodes[:-1], nodes[1:])]
    files = {
        "graph_indicator": "".join(f"{g}\n" for g in graph_ids),
        "graph_labels": "0\n1\n0\n",
        "A": "".join(f"{b}, {a}\n{a}, {b}\n" for a, b in chains),
        "node_attributes": "".join(f"{i}.0\n" for i in range(300)),
    }
    for suffix, text in files.items():
        (tmp_path / f"IL_{suffix}.txt").write_text(text, encoding="utf-8")
    graphs = load_tu_dataset(str(tmp_path), "IL")
    for g, nodes in zip(graphs, members):
        np.testing.assert_array_equal(g.features[:, 0], nodes)
        assert g.edges.tolist() == [[i, i + 1] for i in range(len(nodes) - 1)]


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
        assert sorted(a.edges.tolist()) == sorted(b.edges.tolist())
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
        graphs.append(Graph(edges, np.array(values).reshape(n, dim), label))
    return graphs


@settings(max_examples=60, deadline=None)
@given(graphs=tu_datasets())
def test_tu_round_trip_property(tmp_path_factory, graphs):
    out = tmp_path_factory.mktemp("rt")
    save_tu_dataset(GraphBatch(graphs), str(out), "RT")
    reloaded = load_tu_dataset(str(out), "RT")
    classes = sorted({g.label for g in graphs})
    assert len(reloaded) == len(graphs)
    for a, b in zip(graphs, reloaded):
        assert b.node_count == a.node_count
        assert b.edges.tolist() == [list(e) for e in sorted(a.edges)]
        assert b.label == classes.index(a.label)
        assert b.features.dtype == np.float64
        assert b.features.tobytes() == a.features.tobytes()  # exact, -0.0 too


@given(graphs=tu_datasets())
def test_tu_round_trip_builds_a_batch(tmp_path_factory, graphs):
    out = tmp_path_factory.mktemp("rt")
    original = GraphBatch(graphs)
    save_tu_dataset(original, str(out), "RT")
    # A.txt holds each entry of the batch's adjacency once, 1-based
    text = (out / "RT_A.txt").read_text(encoding="utf-8")
    rows = [tuple(map(int, line.split(", "))) for line in text.splitlines()]
    assert len(set(rows)) == len(rows)
    assert set(rows) == {(u + 1, v + 1) for u, v in zip(*original.adjacency.nonzero())}
    batch = load_tu_dataset(str(out), "RT")  # a GraphBatch: raises on a malformed graph
    loops = sum(u == v for g in graphs for u, v in g.edges)
    assert batch.adjacency.nnz == 2 * sum(len(g.edges) for g in graphs) - loops


TU_FILES = ("graph_indicator", "graph_labels", "A", "node_labels", "node_attributes")
BAD_TOKENS = ("x", "1x", "--1", "1.5.2", "0x1f", "#", "1_0", "\uff11", "nan")


@settings(max_examples=60, deadline=None)
@given(graphs=tu_datasets(), data=st.data())
def test_bad_token_is_reported_at_its_file_and_line(tmp_path_factory, graphs, data):
    out = tmp_path_factory.mktemp("bad")
    save_tu_dataset(GraphBatch(graphs), str(out), "RT")
    nodes = sum(g.node_count for g in graphs)
    node_labels = data.draw(st.lists(st.integers(-3, 3), min_size=nodes, max_size=nodes))
    (out / "RT_node_labels.txt").write_text("".join(f"{x}\n" for x in node_labels),
                                            encoding="utf-8")
    load_tu_dataset(str(out), "RT")
    name = data.draw(st.sampled_from(
        [f for f in TU_FILES if (out / f"RT_{f}.txt").read_text(encoding="utf-8")]))
    path = out / f"RT_{name}.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(", ")
    fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(BAD_TOKENS))
    lines[row] = ", ".join(fields)
    blank = data.draw(st.integers(0, len(lines)))  # a blank line still counts as a line
    lines.insert(blank, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        assert ga.node_count == gb.node_count and np.array_equal(ga.edges, gb.edges)
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
    with pytest.raises(ValueError, match="graphs_per_class=0 is below 1"):
        make_synthetic_dataset(spec)


@pytest.mark.parametrize("change,message", [
    ({"classes": 1}, "classes=1 is below 2"),
    ({"nodes_min": 5, "nodes_max": 4}, "nodes_min=5 is above nodes_max=4"),
    ({"nodes_min": 2}, "nodes_min=2 is below 3"),
    ({"feature_dim": 0}, "feature_dim=0 is below 1"),
    ({"topology": "grid"}, "unknown topology 'grid'"),
], ids=["one_class", "nodes_out_of_order", "two_nodes", "no_features", "topology"])
def test_synthetic_rejects_a_spec_out_of_range(change, message):
    spec = SyntheticSpec(classes=2, graphs_per_class=2, nodes_min=3, nodes_max=4,
                         topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spec, **change).validate()


@pytest.mark.parametrize("field,value", [
    ("classes", 2.0), ("graphs_per_class", 2.5), ("nodes_min", 3.5), ("nodes_max", 4.5),
    ("feature_dim", True),
])
def test_synthetic_rejects_a_count_that_is_not_an_integer(field, value):
    spec = SyntheticSpec(classes=2, graphs_per_class=20, nodes_min=3, nodes_max=4,
                         topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0)
    with pytest.raises(ValueError, match=f"{field}={value!r} is not an integer"):
        dataclasses.replace(spec, **{field: value}).validate()
    dataclasses.replace(spec, **{field: np.int64(getattr(spec, field))}).validate()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
def test_synthetic_rejects_a_noise_sigma_that_is_not_finite_and_non_negative(value):
    spec = SyntheticSpec(classes=2, graphs_per_class=2, nodes_min=3, nodes_max=4,
                         topology="ambiguous_features", feature_dim=2, noise_sigma=value)
    message = "is below 0" if np.isfinite(value) else "is not a finite real number"
    with pytest.raises(ValueError, match=f"noise_sigma={value!r} {message}"):
        make_synthetic_dataset(spec)


@pytest.mark.parametrize("value", [True, "0.5"])
def test_synthetic_rejects_a_noise_sigma_that_is_not_a_real_number(value):
    spec = SyntheticSpec(classes=2, graphs_per_class=2, nodes_min=3, nodes_max=4,
                         topology="ambiguous_features", feature_dim=2, noise_sigma=value)
    with pytest.raises(ValueError, match=f"noise_sigma={value!r} is not a finite real number"):
        make_synthetic_dataset(spec)


def test_scalar_checks_take_numpy_numbers_and_reject_bools_and_strings():
    for value in (3, np.int64(3), np.uint8(3)):
        check_integer("x", value, 3)
    for value in (0.5, np.float32(0.5), 3, np.int64(3), 10**400):
        check_real("x", value, 0)
    for value in (True, np.True_, 3.0, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"x={value!r} is not an integer")):
            check_integer("x", value)
    for value in (True, np.True_, np.nan, -np.inf, "0.5", None, 1j):
        with pytest.raises(ValueError, match=re.escape(f"x={value!r} is not a finite real number")):
            check_real("x", value)
    with pytest.raises(ValueError, match="x=2 is below 3"):
        check_integer("x", 2, 3)
    with pytest.raises(ValueError, match="x=-0.5 is below 0"):
        check_real("x", -0.5, 0)


@pytest.mark.parametrize("topology,feature_dim,classes,period", [
    ("cycle_vs_star", 1, 3, 2),
    ("cycle_vs_star", 2, 3, 2),
    ("cycle_vs_star", 3, 7, 6),
    ("ambiguous_features", 1, 3, 2),
    ("ambiguous_features", 3, 4, 3),
])
def test_synthetic_rejects_two_classes_of_one_distribution(topology, feature_dim, classes, period):
    spec = SyntheticSpec(classes=classes, graphs_per_class=2, nodes_min=3, nodes_max=4,
                         topology=topology, feature_dim=feature_dim, noise_sigma=0.0)
    with pytest.raises(ValueError, match=f"classes 0 and {period} are drawn from one distribution"):
        make_synthetic_dataset(spec)
    assert len(make_synthetic_dataset(dataclasses.replace(spec, classes=period))) == 2 * period


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


@pytest.mark.parametrize("labels,entry", [
    ([0.7, 1.9], "graph 0 of the batch has label 0.7, not a whole number"),
    ([1, 1.5], "graph 1 of the batch has label 1.5, not a whole number"),
    ([0, np.nan], "graph 1 of the batch has label nan, not a whole number"),
    ([-np.inf, 0], "graph 0 of the batch has label -inf, not a whole number"),
    (["a", 1], "graph 0 of the batch has label a, not a whole number"),
    ([0, None], "graph 1 of the batch has label None, not a whole number"),
], ids=["fractions", "fraction_after_an_integer", "nan", "inf", "string", "none"])
def test_batch_rejects_a_label_that_is_not_a_whole_number(labels, entry):
    graphs = [Graph([(0, 1)], np.ones((3, 2)), labels[0]),
              Graph([], np.ones((2, 2)), labels[1])]
    with pytest.raises(ValueError, match=entry):
        GraphBatch(graphs)


def test_batch_keeps_whole_labels_of_any_sign_and_type():
    graphs = [Graph([], np.ones((1, 1)), label) for label in (-2, 3.0, np.int64(1), True)]
    labels = GraphBatch(graphs).labels
    assert labels.tolist() == [-2, 3, 1, 1] and labels.dtype == np.intp


def test_batch_features_are_a_read_only_float64_array():
    graphs = [Graph([(0, 1)], np.array([[1, 2], [3, 4]]), 0), Graph([], np.ones((1, 2)), 1)]
    batch = GraphBatch(graphs)
    assert type(batch.features) is np.ndarray and batch.features.dtype == np.float64
    np.testing.assert_array_equal(batch.features, [[1.0, 2.0], [3.0, 4.0], [1.0, 1.0]])
    for constant in (batch.features, batch.edges):
        with pytest.raises(ValueError, match="read-only"):
            constant[0, 0] = 1


def test_data_module_imports_no_other_popgraph_module():
    src = os.path.dirname(os.path.dirname(popgraph.__file__))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import popgraph.data; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'popgraph')))")
    run = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                         encoding="utf-8", timeout=60, check=True)
    assert run.stdout.split() == ["popgraph", "popgraph.data"]


def test_batch_rejects_no_graphs():
    with pytest.raises(ValueError, match="GraphBatch needs at least one graph"):
        GraphBatch([])


def test_batch_rejects_empty_graph():
    graphs = [Graph([(0, 1)], np.ones((2, 2)), 0), Graph([], np.ones((0, 2)), 1),
              Graph([], np.ones((2, 2)), 0)]
    with pytest.raises(ValueError, match="graph 1 .*no nodes"):
        GraphBatch(graphs)


def test_make_splits_small_example():
    plan = make_splits(10, test_fraction=0.1, k=3, seed=0)
    assert len(plan.test_indices) == 1
    assert [len(v) for v in plan.fold_validation] == [3, 3, 3]


@pytest.mark.parametrize("test_fraction,k,labels,message", [
    (0.0, 2, None, r"test_fraction must be in \(0, 1\)"),
    (1.0, 2, None, r"test_fraction must be in \(0, 1\)"),
    (0.2, 1, None, "k=1 is below 2"),
    (0.2, 2, [0, 1] * 4, r"labels of shape \(8,\) for n=10, expected shape \(10,\)"),
    (0.2, 2, np.zeros((10, 1)), r"labels of shape \(10, 1\) for n=10, expected shape \(10,\)"),
    (0.2, 2, 0, r"labels of shape \(\) for n=10, expected shape \(10,\)"),
], ids=["fraction_0", "fraction_1", "one_fold", "short_labels", "column_labels", "scalar_label"])
def test_make_splits_rejects_an_argument_out_of_range(test_fraction, k, labels, message):
    with pytest.raises(ValueError, match=message):
        make_splits(10, test_fraction, k, 0, labels)


def test_make_splits_rejects_tiny_dataset():
    with pytest.raises(ValueError):
        make_splits(5, test_fraction=0.2, k=4, seed=0)


@pytest.mark.parametrize("value,index", [(np.nan, 2), (np.inf, 6), (-np.inf, 0)])
def test_make_splits_rejects_non_finite_label(value, index):
    labels = [0.0, 1.0] * 5
    labels[index] = value
    labels[9] = np.nan  # only the first is named
    with pytest.raises(ValueError, match=f"label {value} at index {index} is not finite"):
        make_splits(10, 0.2, 2, 0, labels=labels)


@pytest.mark.parametrize("n,k,entry", [(20.5, 2, "n=20.5"), (20, 2.5, "k=2.5"),
                                       (20, True, "k=True")])
def test_make_splits_rejects_a_size_or_fold_count_that_is_not_an_integer(n, k, entry):
    with pytest.raises(ValueError, match=f"{entry} is not an integer"):
        make_splits(n, 0.2, k, 0)
    assert len(make_splits(np.int64(20), 0.2, np.int64(2), 0).test_indices) == 4


@pytest.mark.parametrize("seed", [None, 1.5, True, -1])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    entry = re.escape(f"seed={seed!r} is below 0" if seed == -1
                      else f"seed={seed!r} is not an integer")
    with pytest.raises(ValueError, match=entry):
        make_splits(20, 0.2, 2, seed)
    spec = SyntheticSpec(classes=2, graphs_per_class=2, nodes_min=3, nodes_max=4,
                         topology="cycle_vs_star", feature_dim=2, noise_sigma=0.1, seed=seed)
    with pytest.raises(ValueError, match=entry):
        make_synthetic_dataset(spec)
    assert make_splits(20, 0.2, 2, np.int64(3)) == make_splits(20, 0.2, 2, 3)


def test_make_splits_deterministic_and_stratified():
    labels = [0] * 40 + [1] * 40
    a = make_splits(80, 0.25, 4, seed=7, labels=labels)
    b = make_splits(80, 0.25, 4, seed=7, labels=labels)
    assert a == b
    test_labels = [labels[i] for i in a.test_indices]
    assert test_labels.count(0) == 10 and test_labels.count(1) == 10


@pytest.mark.parametrize(
    "n,test_fraction,k,seed,labels,expected",
    [(10, 0.3, 3, 1, None,
      ([4, 7, 8], [[1, 2, 6, 9], [0, 2, 3, 5, 6], [0, 1, 3, 5, 9]], [[0, 3, 5], [1, 9], [2, 6]])),
     # classes of 7, 3 and 2: 2, 1 and 0 of them go to test
     (12, 0.25, 2, 3, [0, 2, 0, 1, 0, 0, 1, 0, 2, 0, 1, 0],
      ([6, 9, 11], [[1, 2, 3, 5], [0, 4, 7, 8, 10]], [[0, 4, 7, 8, 10], [1, 2, 3, 5]])),
     # class 1 has 3 = k samples: the clamp keeps all 3 out of test, not round(1.5) = 2
     (12, 0.5, 3, 5, [0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0],
      ([1, 3, 4, 6], [[5, 7, 9, 10, 11], [0, 2, 7, 8, 9], [0, 2, 5, 8, 10, 11]],
       [[0, 2, 8], [5, 10, 11], [7, 9]]))],
    ids=["unstratified", "uneven_classes", "clamp_binds"],
)
def test_make_splits_pinned_plans(n, test_fraction, k, seed, labels, expected):
    plan = make_splits(n, test_fraction, k, seed, labels)
    assert (plan.test_indices, plan.fold_train, plan.fold_validation) == expected
    assert all(type(i) is int for i in plan.test_indices + plan.fold_train[0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    k=st.integers(min_value=2, max_value=10),
    test_fraction=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
    classes=st.integers(min_value=0, max_value=5),  # 0: unstratified
)
def test_split_partition_property(n, k, test_fraction, seed, classes):
    if n < k + 2:
        return
    labels = np.random.default_rng(seed).integers(classes, size=n) if classes else None
    plan = make_splits(n, test_fraction, k, seed, labels)
    assert all(plan.fold_validation)
    non_test = sorted(set(range(n)) - set(plan.test_indices))
    all_val = sorted(x for fold in plan.fold_validation for x in fold)
    assert all_val == non_test
    for train, val in zip(plan.fold_train, plan.fold_validation):
        assert not set(train) & set(val)
        assert not set(train) & set(plan.test_indices)
        assert sorted(train + val) == non_test


def test_batch_rejects_out_of_range_edge():
    # stacked unchecked, edge (0, 5) would join graph 0 to node 3 of graph 1
    graphs = [Graph([(0, 5)], np.ones((2, 1)), 0), Graph([], np.ones((6, 1)), 1)]
    message = r"graph 0 of the batch has edge \(0, 5\) outside \[0, 2\)"
    with pytest.raises(ValueError, match=message):
        GraphBatch(graphs)


@pytest.mark.parametrize(
    "edge,shown",
    [((0.5, 1), "(0.5, 1.0)"), ((-0.5, 1), "(-0.5, 1.0)"), ((1.9, 0), "(1.9, 0.0)"),
     ((np.nan, 1), "(nan, 1.0)"), ((0, np.inf), "(0.0, inf)")],
    ids=["half", "minus_half", "near_two", "nan", "inf"],
)
def test_batch_rejects_an_edge_that_is_not_a_pair_of_whole_numbers(edge, shown):
    # cast unchecked, (0.5, 1) and (-0.5, 1) would both be stored as (0, 1)
    graphs = [Graph([(0, 1)], np.ones((2, 1)), 0), Graph([(0, 1), edge], np.ones((3, 1)), 1)]
    message = f"graph 1 of the batch has edge {shown}, not a pair of whole numbers"
    with pytest.raises(ValueError, match=re.escape(message)):
        GraphBatch(graphs)


def test_batch_takes_whole_float_edges_as_integers():
    batch = GraphBatch([Graph([(0.0, 1.0), (2.0, 1.0)], np.ones((3, 1)), 0)])
    assert batch.edges.tolist() == [[0, 1], [2, 1]] and batch.edges.dtype == np.intp


@pytest.mark.parametrize(
    "edges,problem",
    [([(0, 1, 2)], "of shape (1, 3), not"), ([0, 1], "of shape (2,), not"),
     ([[(0, 1)]], "of shape (1, 1, 2), not"),
     # ragged: numpy makes no array of them, and its message names no graph
     ([(0, 1), (2,)], "that are not"), ([(0, 1), (1, 2, 0)], "that are not"),
     ([[0, 1], [1]], "that are not")],
    ids=["three_fields", "flat", "nested", "ragged_short", "ragged_long", "ragged_lists"],
)
def test_batch_rejects_edges_that_are_not_pairs(edges, problem):
    graphs = [Graph([(0, 1)], np.ones((2, 1)), 0), Graph(edges, np.ones((3, 1)), 1)]
    message = f"graph 1 of the batch has edges {problem} (u, v) pairs"
    with pytest.raises(ValueError, match=re.escape(message)):
        GraphBatch(graphs)


def test_batch_rejects_edges_or_features_that_are_not_real_numbers():
    # cast unchecked, the strings would parse and the imaginary parts be dropped
    first = Graph([(0, 1)], np.ones((2, 1)), 0)
    with pytest.raises(ValueError, match="graph 1 of the batch has edges of dtype <U1, "
                                         "not node indices"):
        GraphBatch([first, Graph([("0", "1")], np.ones((2, 1)), 1)])
    with pytest.raises(ValueError, match="graph 1 of the batch has features of dtype "
                                         "complex128, not real numbers"):
        GraphBatch([first, Graph([], np.ones((2, 1)) + 1j, 1)])


@pytest.mark.parametrize(
    "edges,repeat",
    [([(0, 1), (1, 0)], "(1, 0)"), ([(1, 2), (0, 1), (1, 2)], "(1, 2)"),
     ([(2, 2), (0, 1), (2, 2)], "(2, 2)")],
    ids=["reversed", "repeated", "self_loop"],
)
def test_batch_rejects_repeated_edge(edges, repeat):
    # stacked unchecked, the repeat would give its edge weight 2
    graphs = [Graph([(0, 1)], np.ones((3, 1)), 0), Graph(edges, np.ones((3, 1)), 1)]
    with pytest.raises(ValueError, match="graph 1 of the batch repeats edge " + re.escape(repeat)):
        GraphBatch(graphs)


@pytest.mark.parametrize("shape", [(2,), (2, 1, 1), ()], ids=["1d", "3d", "0d"])
def test_batch_rejects_features_that_are_not_2d(shape):
    graphs = [Graph([(0, 1)], np.ones((2, 1)), 0), Graph([], np.ones(shape), 1)]
    for g, batch in ((1, graphs), (0, graphs[::-1])):
        message = f"graph {g} of the batch has features of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GraphBatch(batch)


def test_batch_takes_features_given_as_a_list_of_rows():
    batch = GraphBatch([Graph([], [[1.0], [2.0]], 0), Graph([(0, 1)], [[3], [4]], 1)])
    assert batch.features.tolist() == [[1.0], [2.0], [3.0], [4.0]]
    assert batch.features.dtype == np.float64


def test_batch_rejects_ragged_feature_rows():
    # ragged: numpy makes no array of them, and its message names no graph
    graphs = [Graph([(0, 1)], np.ones((2, 1)), 0), Graph([], [[1.0], [2.0, 3.0]], 1)]
    with pytest.raises(ValueError, match="graph 1 of the batch has ragged feature rows"):
        GraphBatch(graphs)


def test_batch_rejects_feature_width_other_than_graph_0s():
    graphs = [Graph([(0, 1)], np.ones((2, 2)), 0), Graph([], np.ones((3, 2)), 1),
              Graph([], np.ones((2, 3)), 0), Graph([], np.ones((2, 1)), 1)]
    with pytest.raises(ValueError, match="graph 2 of the batch has 3 feature columns, graph 0 has 2"):
        GraphBatch(graphs)


@pytest.mark.parametrize(
    "graphs,message",
    [([Graph([(0, 1)], np.ones((2, 1)), 0), Graph([], np.ones((0, 1)), 1),
       Graph([], np.ones((2, 1)), 0)], "graph 1 of the batch has no nodes"),
     ([Graph([(0, 5)], np.ones((2, 1)), 0), Graph([], np.ones((6, 1)), 1)],
      r"graph 0 of the batch has edge \(0, 5\) outside"),
     ([Graph([], np.ones((1, 1)), 0), Graph([], np.array([[0.5], [np.inf]]), 1)],
      "graph 1 of the batch has a non-finite feature"),
     ([Graph([(0, 1)], np.ones((2, 0)), 0)], "node features have no columns")],
    ids=["zero_node_graph", "edge_past_its_graph", "infinite_feature", "zero_feature_columns"],
)
def test_save_writes_no_file_for_graphs_the_loader_rejects(tmp_path, graphs, message):
    # each would load back as a DatasetFormatError: "graph id 3 skips graph 2",
    # "edge crosses graphs 1 and 2", "non-finite attribute"; or, with no feature
    # columns, as blank attribute lines that load as the constant feature 1
    with pytest.raises(ValueError, match=message):
        save_tu_dataset(GraphBatch(graphs), str(tmp_path), "RT")
    assert not any(tmp_path.iterdir())


def assert_same_arrays(a, b):
    """Equal stacked arrays and f1 block plans, dtypes included."""
    pairs = [(a.node_offsets, b.node_offsets), (a.labels, b.labels), (a.features, b.features)]
    blocks_a, blocks_b = node_blocks(a), node_blocks(b)
    assert len(blocks_a) == len(blocks_b)
    sparse = [(a.adjacency, b.adjacency)]
    for x, y in zip(blocks_a, blocks_b):
        assert (x.rows, x.graphs) == (y.rows, y.graphs)
        pairs.append((x.aggregated, y.aggregated))
        sparse += [(x.adjacency, y.adjacency), (x.membership, y.membership)]
    for x, y in sparse:
        pairs += [(x.indptr, y.indptr), (x.indices, y.indices), (x.data, y.data)]
    for x, y in pairs:
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype


@pytest.mark.parametrize("topology", ["cycle_vs_star", "ambiguous_features"])
def test_loaded_batch_equals_the_saved_graphs_stacked(tmp_path, topology):
    spec = SyntheticSpec(classes=3, graphs_per_class=5, nodes_min=3, nodes_max=9,
                         topology=topology, feature_dim=3, noise_sigma=0.5, seed=2)
    batch = make_synthetic_dataset(spec)
    save_tu_dataset(batch, str(tmp_path), "EQ")
    assert_same_arrays(load_tu_dataset(str(tmp_path), "EQ"), GraphBatch(list(batch)))


def test_batch_of_a_batch_reproduces_it(tmp_path):
    batch = load_tu_dataset(write_fixture(tmp_path, attributes="0.5\n1.5\n2.5\n3.5\n"), "TOY")
    again = GraphBatch(batch)
    assert_same_arrays(again, batch)
    np.testing.assert_array_equal(again.edge_offsets, batch.edge_offsets)
    np.testing.assert_array_equal(again.edges, batch.edges)


def test_batch_indexes_to_its_input_graphs():
    rng = np.random.default_rng(8)
    graphs = [Graph([(0, 1), (2, 2)], rng.normal(size=(3, 2)), 1),
              Graph([], rng.normal(size=(1, 2)), 0),
              Graph([(3, 0), (1, 2)], rng.normal(size=(4, 2)), 2)]
    batch = GraphBatch(graphs)
    assert len(batch) == 3 and batch.graphs is batch
    assert [f.name for f in dataclasses.fields(Graph)] == ["edges", "features", "label"]
    for g, graph in enumerate(graphs):
        view = batch[g]
        assert (view.node_count, view.label) == (len(graph.features), graph.label)
        assert view.edges.shape == (len(graph.edges), 2)
        assert view.edges.tolist() == [list(e) for e in graph.edges]
        np.testing.assert_array_equal(view.features, graph.features)
        assert not view.edges.flags.writeable and not view.features.flags.writeable
    assert batch[-1].node_count == 4
    with pytest.raises(IndexError):
        batch[3]
