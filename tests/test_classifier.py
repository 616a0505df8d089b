import math
import re

import numpy as np
import pytest

from popgraph import nn
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.degree_loss import TargetDistribution, degree_loss, total_loss
from popgraph.latent_graph import LatentGraphParams
from popgraph.nn import ROW_BLOCK
from popgraph.tensor import ShapeError, Tensor, finite_difference_check


def make_classifier(rng, input_dim=4, gnn_dims=(3,), head_dims=(3, 2)):
    config = ClassifierConfig(gnn_dims=list(gnn_dims), head_dims=list(head_dims))
    return PopulationClassifier(config, input_dim, rng)


def test_zero_head_gives_uniform_probabilities():
    rng = np.random.default_rng(2)
    clf = make_classifier(rng)
    clf.head.layers[-1].weight.data[:] = 0.0
    clf.head.layers[-1].bias.data[:] = 0.0
    h = Tensor(rng.normal(size=(5, 4)))
    probs = clf.forward(h, Tensor(np.zeros((5, 5))))[0]
    np.testing.assert_allclose(probs.data, np.full((5, 2), 0.5), atol=1e-12)


def test_identical_rows_identical_probabilities():
    rng = np.random.default_rng(3)
    clf = make_classifier(rng)
    h = np.tile(rng.normal(size=(1, 4)), (2, 1))
    probs = clf.forward(Tensor(h), Tensor(np.zeros((2, 2))))[0]
    np.testing.assert_array_equal(probs.data[0], probs.data[1])


def test_rows_are_stochastic():
    rng = np.random.default_rng(4)
    clf = make_classifier(rng, head_dims=(4, 3))
    h = Tensor(rng.normal(size=(7, 4)))
    a = rng.random((7, 7))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    probs = clf.forward(h, Tensor(a))[0]
    np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(7), atol=1e-9)


def test_population_permutation_equivariance():
    rng = np.random.default_rng(5)
    clf = make_classifier(rng)
    h = rng.normal(size=(6, 4))
    a = rng.random((6, 6))
    np.fill_diagonal(a, 0.0)
    perm = rng.permutation(6)
    base = clf.forward(Tensor(h), Tensor(a))[0].data
    permuted = clf.forward(Tensor(h[perm]), Tensor(a[np.ix_(perm, perm)]))[0].data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


def test_neighbor_influence():
    rng = np.random.default_rng(6)
    clf = make_classifier(rng)
    h = rng.normal(size=(3, 4))
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 0.8  # node 2 isolated
    base = clf.forward(Tensor(h), Tensor(a))[0].data
    h2 = h.copy()
    h2[1] += 1.0
    moved = clf.forward(Tensor(h2), Tensor(a))[0].data
    assert np.abs(moved[0] - base[0]).max() > 1e-6  # connected node moves
    np.testing.assert_allclose(moved[2], base[2], atol=1e-12)  # isolated does not


def test_full_pipeline_gradient_check():
    rng = np.random.default_rng(7)
    clf = make_classifier(rng, input_dim=3, gnn_dims=(3,), head_dims=(2,))
    h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    a = Tensor(np.abs(random_sym(rng, 4)), requires_grad=True)
    labels = np.array([0, 1, 0, 1])

    def f(_):
        _, logits = clf.forward(h, a)
        return cross_entropy(logits, labels)

    for tensor in [h, a] + clf.parameters():
        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{tensor.name}: {err}"


def random_sym(rng, n):
    a = rng.random((n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def test_cross_entropy_saturated_logits_near_zero():
    logits = Tensor([[30.0, 0.0], [0.0, 30.0]])
    loss = cross_entropy(logits, [0, 1])
    assert 0.0 <= loss.item() < 1e-9


def test_cross_entropy_uniform_two_classes():
    logits = Tensor(np.zeros((4, 2)))
    np.testing.assert_allclose(cross_entropy(logits, [0, 1, 0, 1]).item(), math.log(2.0), atol=1e-12)


def test_cross_entropy_matches_direct_oracle():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(5, 3)) * 3.0
    labels = rng.integers(0, 3, size=5)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    oracle = -np.mean(np.log(probs[np.arange(5), labels]))
    np.testing.assert_allclose(cross_entropy(Tensor(logits), labels).item(), oracle, atol=1e-10)


def test_cross_entropy_rejects_bad_labels():
    for labels, message in (([0, 2], r"^label 2 at index 1 is outside \[0, 2\)$"),
                            ([-1, 0], r"^label -1 at index 0 is outside \[0, 2\)$")):
        with pytest.raises(ValueError, match=message):
            cross_entropy(Tensor(np.zeros((2, 2))), labels)
    for rows, labels, shape in ((2, [0, 1, 0], r"\(3,\)"), (4, np.zeros((4, 1)), r"\(4, 1\)"),
                                (1, 0, r"\(\)")):
        message = rf"labels of shape {shape} for {rows} rows, expected shape \({rows},\)"
        with pytest.raises(ValueError, match=message):
            cross_entropy(Tensor(np.zeros((rows, 2))), labels)


@pytest.mark.parametrize("labels,entry", [
    ([0.7, 1.9], "label 0.7 at index 0 is not a whole number"),
    ([0, 1.5], "label 1.5 at index 1 is not a whole number"),
    ([1, np.nan], "label nan at index 1 is not a whole number"),
    ([np.inf, 0], "label inf at index 0 is not a whole number"),
    (["a", "b"], "label a at index 0 is not a whole number"),
    ([1, None], "label None at index 1 is not a whole number"),
], ids=["fractions", "fraction_after_an_integer", "nan", "inf", "strings", "none"])
def test_cross_entropy_rejects_a_label_that_is_not_a_whole_number(labels, entry):
    with pytest.raises(ValueError, match=entry):
        cross_entropy(Tensor([[5.0, 0.0], [0.0, 5.0]]), labels)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 2)], ids=["1d", "3d"])
def test_cross_entropy_rejects_logits_that_are_not_2d(shape):
    with pytest.raises(ShapeError, match=re.escape(f"2-D logits, not shape {shape}")):
        cross_entropy(Tensor(np.zeros(shape)), [0, 1])


def test_cross_entropy_rejects_zero_rows():
    with pytest.raises(ValueError, match="at least one row"):
        cross_entropy(Tensor(np.zeros((0, 2))), [])


@pytest.mark.parametrize("gnn_dims,head_dims,entry", [
    ([], [2], r"gnn_dims=\[\] is not a sequence of 1 or more widths"),
    ([0], [2], r"gnn_dims\[0\]=0 is below 1"),
    ([4, 2.5], [2], r"gnn_dims\[1\]=2.5 is not an integer"),
    ([4], [0], r"head_dims\[0\]=0 is below 1"),
    ([4], [3, -2], r"head_dims\[1\]=-2 is below 1"),
    ([4], ["2"], r"head_dims\[0\]='2' is not an integer"),
])
def test_config_rejects_a_width_that_is_not_a_positive_integer(gnn_dims, head_dims, entry):
    with pytest.raises(ValueError, match=entry):
        ClassifierConfig(gnn_dims=gnn_dims, head_dims=head_dims)


@pytest.mark.parametrize("input_dim", [0, 2.5, True, -3])
def test_classifier_rejects_an_input_width_that_is_not_a_positive_integer(input_dim):
    with pytest.raises(ValueError, match=rf"f3.conv0 dims\[0\]={input_dim!r} is "):
        make_classifier(np.random.default_rng(0), input_dim=input_dim)


@pytest.mark.parametrize("head_dims", [[], [1], [8, 1], np.array([], dtype=int), np.array([8, 1])])
def test_config_rejects_a_head_of_fewer_than_two_classes(head_dims):
    # an empty head has no class count to read: it is a width list below its minimum
    match = "at least 2" if len(head_dims) else r"head_dims=.* of 1 or more widths"
    with pytest.raises(ValueError, match=match):
        ClassifierConfig(gnn_dims=[4], head_dims=head_dims)


def test_config_accepts_widths_given_as_numpy_arrays():
    config = ClassifierConfig(gnn_dims=np.array([4]), head_dims=np.array([3, 2]))
    classifier = PopulationClassifier(config, 5, np.random.default_rng(0))
    probs, logits = classifier.forward(Tensor(np.ones((6, 5))), Tensor(np.eye(6)))
    assert probs.shape == logits.shape == (6, 2)


POPULATION = 2 * ROW_BLOCK + 22  # three row blocks of f2, the last one ragged


def population_step(n, gnn_dims=(4,)):
    """f2 -> f3 + cross-entropy + NDDL on a population of ``n`` samples:
    returns ``grads(adjacency, alpha, mix)``, which runs one backward and
    gives the gradient of every parameter and of f1's output that it reaches."""
    rng = np.random.default_rng(21)
    params = LatentGraphParams([3, 4], rng)
    classifier = make_classifier(rng, input_dim=3, gnn_dims=gnn_dims, head_dims=(2,))
    target = TargetDistribution.for_support(n)
    h = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
    params.init_threshold(h)
    labels = rng.integers(0, 2, size=n)
    tensors = [h] + params.parameters() + classifier.parameters() + target.parameters()

    def grads(adjacency, alpha=1.0, mix=None):
        a = adjacency(params.forward(h).a_p)
        _, logits = classifier.forward(h, a)
        kl, _ = degree_loss(a, target)
        loss = total_loss(cross_entropy(logits, labels), kl, alpha)
        if mix is not None:
            loss = loss + (a * Tensor(mix)).sum()
        loss.backward()
        return [t.grad for t in tensors if t.grad is not None]

    return grads


def factored(a_p):
    return a_p


def dense(a_p):
    """A generic op between the edge weights and their readers: the factored
    terms are made dense at its output, so one dense gradient reaches f2."""
    return a_p * 1.0


def assert_same_gradients(got, expected):
    """Equal to 1e-12 relative, or to 1e-12 of the largest gradient entry: the
    embedding's last bias has the exact gradient 0 (distances do not move
    under a translation), and both sides read rounding noise there."""
    assert len(got) == len(expected)
    scale = max(np.abs(e).max() for e in expected)
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12 * scale)


# One GraphConv layer over the edge weights sends them one outer term; two
# layers send two, which meet in one concatenated gemm per block.
EDGE_WEIGHT_CASES = [pytest.param(alpha, mixed, gnn_dims, id=name + suffix)
                     for gnn_dims, suffix in (((4,), ""), ((4, 3), "-two_layers"))
                     for alpha, mixed, name in ((1.0, False, "f3_and_nddl"),
                                                (1.0, True, "with_a_dense_term"),
                                                (0.0, False, "f3_only"))]


@pytest.mark.parametrize("alpha,mixed,gnn_dims", EDGE_WEIGHT_CASES)
def test_factored_edge_weight_gradient_matches_dense(alpha, mixed, gnn_dims):
    grads = population_step(POPULATION, gnn_dims)
    mix = np.random.default_rng(22).normal(size=(POPULATION, POPULATION)) if mixed else None
    assert_same_gradients(grads(factored, alpha, mix), grads(dense, alpha, mix))


def test_leaf_adjacency_gets_a_dense_gradient_of_its_own():
    rng = np.random.default_rng(23)
    n = 70
    classifier = make_classifier(rng, input_dim=3, gnn_dims=(4,), head_dims=(2,))
    target = TargetDistribution.for_support(n)
    h = Tensor(rng.normal(size=(n, 3)))
    labels = rng.integers(0, 2, size=n)
    adjacency = Tensor(random_sym(rng, n), requires_grad=True)
    results = []
    for route in (factored, dense):
        a = route(adjacency)
        _, logits = classifier.forward(h, a)
        kl, _ = degree_loss(a, target)
        total_loss(cross_entropy(logits, labels), kl, 1.0).backward()
        assert type(adjacency.grad) is np.ndarray and adjacency.grad.flags.owndata
        results.append(adjacency.grad)
    np.testing.assert_allclose(results[0], results[1], rtol=1e-12, atol=1e-15)


def test_layers_over_one_constant_adjacency_build_one_csr(monkeypatch):
    rng = np.random.default_rng(19)
    clf = make_classifier(rng, gnn_dims=(5, 3))
    built = []
    csr_matrix = nn.sp.csr_matrix

    def counted(a):
        built.append(a)
        return csr_matrix(a)

    monkeypatch.setattr(nn.sp, "csr_matrix", counted)
    # a constant of 40% nonzeros is multiplied densely, one of 5% through a copy
    for n, share, copies in ((6, 0.4, 0), (40, 0.05, 1)):
        built.clear()
        h = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        a = Tensor((rng.random((n, n)) < share) * 1.0)
        for _ in range(2):
            (clf.forward(h, a)[1] * Tensor(rng.normal(size=(n, 2)))).sum().backward()
        assert len(built) == copies


def test_a_learned_graph_with_gradients_off_is_aggregated_densely_bit_for_bit():
    rng = np.random.default_rng(24)
    params = LatentGraphParams([3, 4], rng)
    classifier = make_classifier(rng, input_dim=3, gnn_dims=(4, 4), head_dims=(2,))
    h = Tensor(rng.normal(size=(POPULATION, 3)), requires_grad=True)
    params.init_threshold(h)
    probabilities = []
    for requires_grad in (True, False):
        for t in [h] + params.parameters() + classifier.parameters():
            t.requires_grad = requires_grad
        a = params.forward(h).a_p
        probabilities.append(classifier.forward(h, a)[0].data)
    np.testing.assert_array_equal(probabilities[1], probabilities[0])
    assert nn.constant_csr(a) is None and a.data.flags.writeable  # the dense route
