"""Full-graph training: Adam and early stopping on the validation composite.

One "step" is one gradient update computed on the whole graph
(transductive full-batch training). After every update the model is
re-run in evaluation mode on the validation split's receptive field (the
nodes whose features reach a validation node's output), which gives the
validation rows of a full-graph forward bit for bit; the selection
signal is accuracy plus detection AUROC, and training stops once that
composite has gone `patience` consecutive steps without a new maximum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics
from .engine import GradTape, Tensor, backward
from .errors import ConfigError, MetricError, TrainingAbort
from .graphs import Graph, SplitAssignment
from .layers import (
    ModelConfig,
    clone_params,
    graph_index,
    init_params,
    model_forward,
    receptive_field,
    restore_params,
)
from .losses import LossBreakdown, LossWeights, compute_objective

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Everything that varies between training runs of a fixed model."""

    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout_p: float = 0.0
    drop_edge_p: float = 0.0
    max_steps: int = 1000
    patience: int = 200
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0 or not 0.0 <= self.drop_edge_p < 1.0:
            raise ConfigError("dropout rates must lie in [0, 1)")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    step: int                  # 1-based
    losses: LossBreakdown
    val_accuracy: float
    val_auroc: float           # best applicable detection score
    composite: float           # val_accuracy + val_auroc


@dataclass
class TrainHistory:
    steps: list[StepRecord]
    best_step: int

    @property
    def best_composite(self) -> float:
        return self.steps[self.best_step - 1].composite


@dataclass
class TrainedModel:
    config: ModelConfig
    params: dict[str, Tensor]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, Tensor]) -> AdamState:
    return AdamState(m={k: np.zeros(t.shape) for k, t in params.items()},
                     v={k: np.zeros(t.shape) for k, t in params.items()})


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, weight_decay: float, t: int) -> None:
    """One Adam update in place. `t` is the 1-based step count.

    L2 regularization enters as weight_decay * param added to the raw
    gradient before the moment updates, so it is adapted like any other
    gradient component.
    """
    if t < 1:
        raise ConfigError("adam step count is 1-based")
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(tensor.shape)
        if not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient for {name!r}", step=t)
        if weight_decay:
            g = g + weight_decay * tensor.values
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor.values = tensor.values - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# validation scoring


def validation_scores(outputs, labels: np.ndarray,
                      identity: np.ndarray) -> tuple[float, float]:
    """(accuracy over ID validation nodes, best applicable detection AUROC).

    `outputs`, `labels` and `identity` hold the validation nodes only, one
    row each. The AUROC uses the entropy score for every model and
    additionally the attention score when the model produces one, keeping
    the larger of the two. A validation set without both identities
    cannot score detection and falls back to 0 for the AUROC term.
    """
    every = np.ones(len(labels), dtype=bool)
    acc = metrics.accuracy(outputs.probs.values, labels, identity == 0)
    try:
        best = max(metrics.auroc(metrics.ScoredNodes(scores, identity, every))
                   for scores in metrics.detection_scores(outputs).values())
    except MetricError:
        best = 0.0
    return acc, best


# ---------------------------------------------------------------------------
# the training loop


def train(model_config: ModelConfig, graph: Graph, splits: SplitAssignment,
          cfg: TrainConfig) -> tuple[TrainedModel, TrainHistory]:
    """Train one model to early stopping and return the best checkpoint.

    The seed fixes parameter initialization and every dropout / drop-edge
    draw, so a repeated call is bit-identical.
    """
    features = graph.features
    index = graph_index(graph)
    val_nodes = np.flatnonzero(splits.val_mask)
    field = receptive_field(index, val_nodes, model_config.architecture)
    val_features = field.features_of(features)
    val_labels, val_identity = graph.labels[val_nodes], graph.identity[val_nodes]
    rng = np.random.default_rng(cfg.seed)
    params = init_params(model_config, graph.num_features, rng)
    state = init_adam(params)

    steps: list[StepRecord] = []
    best_composite = -np.inf
    best_step = 0
    best_checkpoint: dict[str, np.ndarray] = clone_params(params)
    stall = 0

    for step in range(1, cfg.max_steps + 1):
        with GradTape():
            out = model_forward(model_config, params, features, index,
                                training=cfg, rng=rng)
            total, breakdown = compute_objective(out, graph.labels,
                                                 splits.train_mask,
                                                 cfg.loss_weights, t=step - 1)
            if not np.isfinite(breakdown.total):
                raise TrainingAbort(f"non-finite loss at step {step}",
                                    step=step, breakdown=asdict(breakdown))
            grads_by_tensor = backward(total)
        grads = {name: grads_by_tensor[t] for name, t in params.items()
                 if t in grads_by_tensor}
        adam_step(params, grads, state, cfg.lr, cfg.weight_decay, step)

        out_eval = model_forward(model_config, params, val_features, field)
        acc, det = validation_scores(out_eval, val_labels, val_identity)
        composite = acc + det
        steps.append(StepRecord(step=step, losses=breakdown,
                                val_accuracy=acc, val_auroc=det,
                                composite=composite))
        if composite > best_composite:
            best_composite = composite
            best_step = step
            best_checkpoint = clone_params(params)
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    restore_params(params, best_checkpoint)
    history = TrainHistory(steps=steps, best_step=best_step)
    return TrainedModel(config=model_config, params=params), history

