"""The GiG model: f1 -> f2 -> f3, trained on CE + alpha * NDDL.

f1 (``node_level``) turns each graph of a batch into one vector; f2
(``latent_graph``) learns the population graph A over those vectors; f3
(``classifier``) classifies each graph over A. NDDL (``degree_loss``) is the
KL divergence of A's degree histogram from a learnable target. A constant
adjacency in place of f2 and NDDL gives the fixed-graph ablations (WL-kNN).
"""

from dataclasses import dataclass

import numpy as np

from .classifier import ClassifierConfig, PopulationClassifier, cross_entropy
from .data import GraphBatch, check_real
from .degree_loss import TargetDistribution, degree_loss, total_loss
from .latent_graph import LatentGraphParams
from .nn import check_widths
from .node_level import NodeLevelConfig, NodeLevelModule
from .tensor import check_tensor


@dataclass
class GiGConfig:
    f1: NodeLevelConfig
    f2_dims: list  # f2's widths after f1's output width, the last one its embedding's
    f3: ClassifierConfig
    alpha: float  # NDDL's weight in the loss, at least 0

    def __post_init__(self):
        for field, kind in (("f1", NodeLevelConfig), ("f3", ClassifierConfig)):
            value = getattr(self, field)
            if not isinstance(value, kind):
                raise TypeError(f"{field} must be a {kind.__name__}, not {type(value).__name__}")
        check_widths("f2_dims", self.f2_dims, at_least=1)
        check_real("alpha", self.alpha, 0)


class GiGModel:
    """f1 -> f2 -> f3 over one batch, or f1 -> f3 over a constant ``adjacency``.

    The stages draw their parameters from ``rng`` in the order f1, f3, f2;
    f2's threshold is then set from f1's output on ``batch``. NDDL's target,
    over the degrees 0..N-1 of ``batch``'s N graphs, is built only at alpha > 0.
    """

    def __init__(self, config: GiGConfig, batch: GraphBatch, rng: np.random.Generator,
                 adjacency=None):
        self.config = config
        width = config.f1.layer_dims[-1]
        self.f1 = NodeLevelModule(config.f1, batch.features.shape[1], rng)
        self.f3 = PopulationClassifier(config.f3, width, rng)
        self.adjacency = adjacency
        self.f2 = self.target = None
        if adjacency is not None:
            check_tensor("adjacency", adjacency)
            return
        self.f2 = LatentGraphParams([width, *config.f2_dims], rng)
        if config.alpha > 0:
            self.target = TargetDistribution.for_support(len(batch))
        self.f2.init_threshold(self.f1.forward(batch))

    def _forward(self, batch: GraphBatch):
        """(f3's probabilities, f3's logits, the population graph) for ``batch``."""
        h = self.f1.forward(batch)
        a = self.adjacency if self.f2 is None else self.f2.forward(h).a_p
        return (*self.f3.forward(h, a), a)

    def loss(self, batch: GraphBatch):
        """(scalar loss, population graph A): CE over every graph, plus alpha * NDDL of A."""
        _, logits, a = self._forward(batch)
        loss = cross_entropy(logits, batch.labels)
        if self.target is not None:
            kl, _ = degree_loss(a, self.target)
            loss = total_loss(loss, kl, self.config.alpha)
        return loss, a

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """The N x C class probabilities of ``batch``'s graphs; each row sums to 1."""
        return self._forward(batch)[0].data

    def parameters(self) -> list:
        """Every trainable Tensor of the stages built: f1's, f3's, f2's, the NDDL target's."""
        stages = (self.f1, self.f3, self.f2, self.target)
        return [p for stage in stages if stage is not None for p in stage.parameters()]
