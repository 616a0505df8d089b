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
        ("node_attributes", "0.5\n1.5, 2.0\n2.5\n3.5\n", r"TOY_node_attributes.txt:2: 2 attributes"),
        ("node_attributes", "0.5\n1.5\n\nabc\n3.5\n", r"TOY_node_attributes.txt:4: bad attribute row"),
        ("A", "1, 2\n2, 1\n3, 4\n4, y\n", r"TOY_A.txt:4: bad node id in '4, y'"),
    ],
    ids=["graph_id_gap", "graph_id_zero", "graph_label", "node_label", "ragged_attributes",
         "non_numeric_attributes", "edge_node_id"],
)
def test_malformed_file_reports_file_and_line(tmp_path, filename, content, message):
    write_fixture(tmp_path)
    (tmp_path / f"TOY_{filename}.txt").write_text(content)
    with pytest.raises(DatasetFormatError, match=message):
        load_tu_dataset(str(tmp_path), "TOY")


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
        topology="cycle_vs_star", feature_dim=3, noise_sigma=0.5,
    )
    graphs = make_synthetic_dataset(spec, seed=11)
    out = tmp_path / "rt"
    save_tu_dataset(graphs, str(out), "RT")
    reloaded = load_tu_dataset(str(out), "RT")
    assert len(reloaded) == len(graphs)
    for a, b in zip(graphs, reloaded):
        assert a.node_count == b.node_count
        assert sorted(a.edges) == sorted(b.edges)
        assert a.label == b.label
        np.testing.assert_array_equal(a.features, b.features)


def test_synthetic_noise_free_classes_are_constant():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=4, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0,
    )
    graphs = make_synthetic_dataset(spec, seed=3)
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
        topology="ambiguous_features", feature_dim=4, noise_sigma=1.5,
    )
    a = make_synthetic_dataset(spec, seed=42)
    b = make_synthetic_dataset(spec, seed=42)
    for ga, gb in zip(a, b):
        assert ga.node_count == gb.node_count and ga.edges == gb.edges
        np.testing.assert_array_equal(ga.features, gb.features)


def test_synthetic_rejects_degenerate_spec():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=0, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.0,
    )
    with pytest.raises(ValueError, match="0 samples"):
        make_synthetic_dataset(spec, seed=0)


def test_synthetic_classes_balanced():
    spec = SyntheticSpec(
        classes=3, graphs_per_class=7, nodes_min=4, nodes_max=6,
        topology="cycle_vs_star", feature_dim=3, noise_sigma=0.1,
    )
    graphs = make_synthetic_dataset(spec, seed=5)
    counts = np.bincount([g.label for g in graphs])
    assert counts.tolist() == [7, 7, 7]


def test_batch_preserves_edge_counts_and_offsets():
    spec = SyntheticSpec(
        classes=2, graphs_per_class=6, nodes_min=3, nodes_max=8,
        topology="cycle_vs_star", feature_dim=2, noise_sigma=0.3,
    )
    graphs = make_synthetic_dataset(spec, seed=9)
    batch = GraphBatch(graphs)
    assert batch.adjacency.nnz == 2 * sum(len(g.edges) for g in graphs)
    assert batch.node_offsets[-1] == sum(g.node_count for g in graphs)
    assert np.all(np.diff(batch.node_offsets) > 0)
    assert batch.features.shape[0] == batch.total_nodes


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
    g = Graph(node_count=2, edges=[(0, 5)], features=np.ones((2, 1)), label=0)
    with pytest.raises(DatasetFormatError):
        g.validate()
