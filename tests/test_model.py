"""GiGModel: f1 -> f2 -> f3 + CE + alpha * NDDL as one object."""

import numpy as np
import pytest

from popgraph.baselines import knn_from_gram, wl_gram
from popgraph.classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from popgraph.data import GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.degree_loss import TargetDistribution, degree_loss, total_loss
from popgraph.latent_graph import LatentGraphParams
from popgraph.model import GiGConfig, GiGModel
from popgraph.node_level import NodeLevelConfig, NodeLevelModule
from popgraph.tensor import Tensor

CONFIG = GiGConfig(f1=NodeLevelConfig(layer_dims=[6, 5]), f2_dims=[4, 3],
                   f3=ClassifierConfig(gnn_dims=[5], head_dims=[4, 2]), alpha=0.5)


@pytest.fixture(scope="module")
def batch():
    spec = SyntheticSpec(classes=2, graphs_per_class=9, nodes_min=3, nodes_max=7,
                         topology="ambiguous_features", feature_dim=3, noise_sigma=1.0, seed=4)
    return GraphBatch(make_synthetic_dataset(spec))


def wl_knn(batch):
    return Tensor(knn_from_gram(wl_gram(batch.graphs), 3))


def test_a_seeded_model_is_the_hand_composition_in_the_benchmarks_draw_order(batch):
    model = GiGModel(CONFIG, batch, np.random.default_rng(7))
    loss, a = model.loss(batch)
    loss.backward()

    rng = np.random.default_rng(7)
    f1 = NodeLevelModule(CONFIG.f1, batch.features.shape[1], rng)
    f3 = PopulationClassifier(CONFIG.f3, 5, rng)
    f2 = LatentGraphParams([5, 4, 3], rng)
    target = TargetDistribution.for_support(len(batch))
    f2.init_threshold(f1.forward(batch))
    h = f1.forward(batch)
    a_hand = f2.forward(h).a_p
    _, logits = f3.forward(h, a_hand)
    kl, _ = degree_loss(a_hand, target)
    loss_hand = total_loss(cross_entropy(logits, batch.labels), kl, 0.5)
    loss_hand.backward()

    assert model.f2.theta.item() == f2.theta.item() != 1.0  # set from f1's output
    np.testing.assert_array_equal(a.data, a_hand.data)
    assert loss.item() == loss_hand.item()
    params = model.parameters()
    params_hand = f1.parameters() + f3.parameters() + f2.parameters() + target.parameters()
    assert [p.name for p in params] == [p.name for p in params_hand]
    for p, p_hand in zip(params, params_hand):
        np.testing.assert_array_equal(p.data, p_hand.data)
        np.testing.assert_array_equal(p.grad, p_hand.grad)


def test_a_constant_adjacency_replaces_f2_and_nddl(batch):
    adjacency = wl_knn(batch)
    model = GiGModel(CONFIG, batch, np.random.default_rng(7), adjacency=adjacency)
    learned = GiGModel(CONFIG, batch, np.random.default_rng(7))
    params = model.parameters()
    assert model.f2 is None and model.target is None
    assert len(params) == len(model.f1.parameters() + model.f3.parameters())
    for p, p_learned in zip(params, learned.parameters()):  # f1 and f3 draw as with f2
        assert p.name == p_learned.name
        np.testing.assert_array_equal(p.data, p_learned.data)
    loss, a = model.loss(batch)
    assert a is adjacency
    _, logits = model.f3.forward(model.f1.forward(batch), adjacency)
    assert loss.item() == cross_entropy(logits, batch.labels).item()


@pytest.mark.parametrize("fixed", [False, True], ids=["learned", "wl_knn"])
def test_predict_is_f3s_probabilities_from_the_same_forward(batch, fixed):
    adjacency = wl_knn(batch) if fixed else None
    model = GiGModel(CONFIG, batch, np.random.default_rng(7), adjacency=adjacency)
    h = model.f1.forward(batch)
    probs, _ = model.f3.forward(h, adjacency if fixed else model.f2.forward(h).a_p)
    predicted = model.predict(batch)
    np.testing.assert_array_equal(predicted, probs.data)
    np.testing.assert_allclose(predicted.sum(axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("f2_dims,alpha,match", [
    ([], 1.0, r"f2_dims=\[\] is not a sequence of 1 or more widths"),
    ([4, 0], 1.0, r"f2_dims\[1\]=0 is below 1"),
    ([4], -0.5, "alpha"),
    ([4], np.nan, "alpha"),
    ([4], True, "alpha"),
])
def test_config_rejects_f2_widths_and_an_alpha_out_of_range(f2_dims, alpha, match):
    with pytest.raises(ValueError, match=match):
        GiGConfig(f1=CONFIG.f1, f2_dims=f2_dims, f3=CONFIG.f3, alpha=alpha)


@pytest.mark.parametrize("f1,f3,message", [
    ([4], CONFIG.f3, "^f1 must be a NodeLevelConfig, not list$"),
    (CONFIG.f1, {"gnn_dims": [5], "head_dims": [4, 2]}, "^f3 must be a ClassifierConfig, not dict$"),
], ids=["f1_list", "f3_dict"])
def test_config_rejects_a_stage_config_of_another_type(f1, f3, message):
    with pytest.raises(TypeError, match=message):
        GiGConfig(f1=f1, f2_dims=[4], f3=f3, alpha=1.0)


@pytest.mark.parametrize("alpha,fixed", [(0.5, False), (0.0, False), (0.5, True)],
                         ids=["learned", "learned_alpha0", "wl_knn"])
def test_every_listed_parameter_gets_its_own_gradient_from_each_backward(batch, alpha, fixed):
    config = GiGConfig(f1=CONFIG.f1, f2_dims=CONFIG.f2_dims, f3=CONFIG.f3, alpha=alpha)
    adjacency = wl_knn(batch) if fixed else None
    model = GiGModel(config, batch, np.random.default_rng(7), adjacency=adjacency)
    params = model.parameters()
    sentinels = [np.full(p.shape, np.nan) for p in params]
    for p, sentinel in zip(params, sentinels):
        p.grad = sentinel
    loss, a = model.loss(batch)
    loss.backward()
    for p in params:
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, p.name
        assert p.grad.flags.owndata and np.isfinite(p.grad).all(), p.name
    grads = [p.grad for p in params]
    for i, grad in enumerate(grads):
        others = grads[i + 1:] + sentinels
        assert not any(np.shares_memory(grad, other) for other in others), params[i].name
    if alpha == 0:
        assert model.target is None and not [p for p in params if p.name.startswith("target.")]
        _, logits = model.f3.forward(model.f1.forward(batch), a)
        assert loss.item() == cross_entropy(logits, batch.labels).item()


def test_an_adjacency_that_is_not_a_tensor_is_a_type_error(batch):
    with pytest.raises(TypeError, match="^adjacency must be a Tensor, not ndarray$"):
        GiGModel(CONFIG, batch, np.random.default_rng(7), adjacency=np.eye(len(batch)))
