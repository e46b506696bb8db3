"""Loss terms and the decayed composite objective.

Besides plain cross-entropy on labeled nodes, three regularizers shape
the OOD scores: consistency aligns per-layer scores with the (squashed,
standardized) prediction entropy; the entropy term pushes likely-OOD
nodes toward uniform predictions; discrepancy keeps the two layers'
scores aligned with each other. Their joint weight decays as a^(b*t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor
from .errors import ConfigError

_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    beta: float = 0.0    # consistency
    gamma: float = 0.0   # entropy regularizer
    zeta: float = 0.0    # discrepancy
    a: float = 0.9       # decay base
    b: float = 0.01      # decay exponent rate
    epsilon: float = 0.6  # OOD-score selection threshold

    def __post_init__(self):
        if min(self.beta, self.gamma, self.zeta) < 0:
            raise ConfigError("regularizer weights must be >= 0")
        if not 0.0 < self.a <= 1.0:
            raise ConfigError("decay base a must lie in (0, 1]")
        if self.b <= 0:
            raise ConfigError("decay rate b must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")

    def decay(self, t: int) -> float:
        return float(self.a ** (self.b * t))


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    con: float
    ent: float
    dis: float
    decay: float
    total: float


def cross_entropy_loss(Z: Tensor, labels, train_mask) -> Tensor:
    """Mean negative log probability of the true class over masked nodes."""
    rows = np.flatnonzero(np.asarray(train_mask, dtype=bool))
    if len(rows) == 0:
        raise ConfigError("cross-entropy needs a nonempty mask")
    cols = np.asarray(labels, dtype=np.int64)[rows]
    return engine.log_sum(Z, rows, cols, -1.0 / len(rows))


def entropy_score_vector(Z: Tensor) -> Tensor:
    """Per-node entropy, standardized over all nodes, squashed to (0, 1).

    Standardization uses the population sigma; when it collapses to zero
    (all rows equally uncertain) the raw deviations are passed through
    unscaled, mapping every node to 0.5.
    """
    if Z.shape[0] < 2:
        raise ConfigError("entropy standardization needs at least 2 nodes")
    return engine.sigmoid(engine.standardize(engine.row_entropy(Z), _VAR_FLOOR))


def consistency_loss(w1: Tensor, w2: Tensor, e: Tensor) -> Tensor:
    """Negative mean cosine between each layer's scores and the entropy target."""
    c1 = engine.cosine_similarity(w1, e)
    c2 = engine.cosine_similarity(w2, e)
    return engine.scale(engine.add(c1, c2), -0.5)


def entropy_reg_loss(Z: Tensor, w_select: np.ndarray, epsilon: float) -> Tensor:
    """Mean uniform-target cross-entropy over nodes with w_select > epsilon.

    The selection is recomputed from a detached score copy every call;
    gradients flow only through the selected prediction rows. No selected
    node gives exactly 0.
    """
    w_select = np.asarray(w_select, dtype=np.float64).reshape(-1)
    if w_select.shape[0] != Z.shape[0]:
        raise ConfigError("selection scores must cover every node")
    selected = np.flatnonzero(w_select > epsilon)
    if len(selected) == 0:
        return Tensor([[0.0]])
    return engine.log_sum(Z, selected, None, -1.0 / (Z.shape[1] * len(selected)))


def discrepancy_loss(w1: Tensor, w2: Tensor) -> Tensor:
    """Negative cosine between the two layers' score vectors."""
    return engine.scale(engine.cosine_similarity(w1, w2), -1.0)


def total_loss(parts: dict, weights: LossWeights, t: int) -> tuple[Tensor, LossBreakdown]:
    """Compose ce + a^(b*t) * (beta*con + gamma*ent + zeta*dis).

    `parts` maps the term names to scalar tensors; missing regularizer
    terms count as zero. Returns the composite tensor (for backward) and
    a plain-float breakdown (for the history record).
    """
    if t < 0:
        raise ConfigError("step index must be >= 0")
    decay = weights.decay(t)
    terms, term_weights = [], []
    for name, weight in (("con", weights.beta), ("ent", weights.gamma),
                         ("dis", weights.zeta)):
        term = parts.get(name)
        if term is not None and weight != 0.0:
            terms.append(term)
            term_weights.append(weight)
    total = (engine.weighted_sum(parts["ce"], terms, term_weights, decay)
             if terms else parts["ce"])

    def val(name):
        term = parts.get(name)
        return float(term.values[0, 0]) if term is not None else 0.0

    breakdown = LossBreakdown(ce=val("ce"), con=val("con"), ent=val("ent"),
                              dis=val("dis"), decay=decay,
                              total=float(total.values[0, 0]))
    return total, breakdown


def compute_objective(outputs, labels, train_mask, weights: LossWeights,
                      t: int) -> tuple[Tensor, LossBreakdown]:
    """Build the full objective from model outputs at step t.

    Regularizer terms are built only for models that produce OOD scores
    and only when their weight is nonzero; the breakdown reports 0 for
    terms that were not built.
    """
    parts = {"ce": cross_entropy_loss(outputs.probs, labels, train_mask)}
    has_scores = outputs.w1 is not None and outputs.w2 is not None
    if has_scores:
        if weights.beta != 0.0:
            e = entropy_score_vector(outputs.probs)
            parts["con"] = consistency_loss(outputs.w1, outputs.w2, e)
        if weights.gamma != 0.0:
            parts["ent"] = entropy_reg_loss(outputs.probs, outputs.att_score, weights.epsilon)
        if weights.zeta != 0.0:
            parts["dis"] = discrepancy_loss(outputs.w1, outputs.w2)
    elif weights.beta or weights.gamma or weights.zeta:
        raise ConfigError("score regularizers need a model that produces OOD scores")
    return total_loss(parts, weights, t)
