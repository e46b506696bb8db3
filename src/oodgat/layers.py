"""Model definitions: MLP, GCN, GAT, and the OOD-aware attention network.

All four are one two-layer model, `model_forward`: layer 1, ELU,
dropout in training, layer 2, row softmax, so outputs are probability
rows. Only the layer op differs: a product (mlp), `gcn_layer`, or for
GAT and the OOD-aware network the product h W followed by one
`engine.attention` op, of kind "leaky" and "agree" respectively. Its K
heads live side by side: W is (in, K*width), head k owning column block
k, and the attention vectors are the K columns of `a` (width, K) or
`attn` (2*width, K). The hidden layer keeps the heads side by side, and
the prediction layer averages them.

The OOD-aware layer scores every node with a per-head classifier
w(v) = sigmoid(a^T W h_v) and turns score agreement into edge attention:
e_ij = 1 - |w(i) - w(j)|, normalized per neighborhood (self entries: 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp

from . import engine
from .engine import SegmentIndex, Tensor
from .errors import ConfigError
from .graphs import Graph

if TYPE_CHECKING:
    from .training import TrainConfig

ARCHITECTURES = ("mlp", "gcn", "gat", "oodgat")

# hidden widths when the config leaves hidden_dim at 0: attention models
# get per-head width, the dense baselines get a single wider layer
DEFAULT_WIDTH = {"mlp": 64, "gcn": 64, "gat": 32, "oodgat": 32}


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    architecture: str = "gcn"
    hidden_dim: int = 0          # 0 = architecture default
    heads: int = 1

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.num_classes < 2:
            raise ConfigError("need at least 2 ID classes")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.architecture not in ATTENTION and self.heads != 1:
            raise ConfigError(f"{self.architecture} has no attention heads; set heads=1")
        if self.hidden_dim < 0:
            raise ConfigError("hidden_dim must be >= 0")

    @property
    def width(self) -> int:
        return self.hidden_dim if self.hidden_dim else DEFAULT_WIDTH[self.architecture]


@dataclass
class ModelOutputs:
    probs: Tensor                    # (n, C), rows sum to 1
    w1: Tensor | None = None         # layer-1 mean score (oodgat only)
    w2: Tensor | None = None

    @property
    def att_score(self) -> np.ndarray | None:
        """Inference-time OOD score: mean of the two layers' mean scores."""
        if self.w1 is None or self.w2 is None:
            return None
        return (self.w1.values[:, 0] + self.w2.values[:, 0]) / 2.0


# ---------------------------------------------------------------------------
# parameter construction


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_params(config: ModelConfig, in_dim: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """Create the named parameter set for a two-layer model.

    Weight matrices are Glorot-uniform, per head (mlp and gcn have one):
    head k's draws are made in head order (gat: W, then attn) and become
    column block k. OOD score vectors start at zero, which puts every
    initial score at 0.5 and every edge attention at the uniform value.
    """
    width, heads, C = config.width, config.heads, config.num_classes
    attention = ATTENTION.get(config.architecture)
    arrays: dict[str, np.ndarray] = {}
    for layer, rows, cols in (("l1", in_dim, width), ("l2", heads * width, C)):
        draws = [(_glorot(rng, rows, cols), attention and attention.head_init(rng, cols))
                 for _ in range(heads)]
        arrays[f"{layer}.W"] = np.hstack([W for W, _ in draws])
        if attention:
            arrays[f"{layer}.{attention.param}"] = np.hstack([a for _, a in draws])
    return {name: Tensor(v, requires_grad=True) for name, v in arrays.items()}


# ---------------------------------------------------------------------------
# graph index helpers


def graph_index(graph: Graph) -> SegmentIndex:
    """Message-passing index for a graph: both edge directions plus self
    entries (`Graph.index`, built on first use)."""
    return graph.index


def drop_edge(index: SegmentIndex, p: float, rng: np.random.Generator) -> SegmentIndex:
    """Remove each non-self entry independently with probability p."""
    if p == 0.0:
        return index
    keep = rng.random(index.num_entries) >= p
    keep[index.self_pos] = True  # the self term of the aggregation is fixed
    return index.select(keep)


def _input_dropout(x, p: float, rng: np.random.Generator):
    """Feature dropout that preserves sparsity for sparse constants: a
    sparse input keeps only its surviving entries."""
    if sp.issparse(x):
        # positions and take, not a boolean mask: a mask indexes far slower
        kept = np.flatnonzero(rng.random(x.nnz) >= p)
        indptr = np.searchsorted(kept, x.indptr).astype(x.indptr.dtype)
        return sp.csr_matrix((np.take(x.data, kept) / (1.0 - p), np.take(x.indices, kept),
                              indptr), shape=x.shape)
    return engine.dropout(x, p, rng)


# ---------------------------------------------------------------------------
# layer forwards


@dataclass(frozen=True)
class Attention:
    kind: str             # the `engine.attention` kind of its layers
    param: str            # the layers' attention parameters: l1.<param>, l2.<param>
    head_init: Callable   # (rng, head width) -> one head's initial attention column


ATTENTION = {
    "gat": Attention("leaky", "attn", lambda rng, width: _glorot(rng, 2 * width, 1)),
    "oodgat": Attention("agree", "a", lambda rng, width: np.zeros((width, 1))),
}


def gcn_layer(h, index: SegmentIndex | sp.csr_matrix, W: Tensor) -> Tensor:
    """P h W with P = D^-1/2 A D^-1/2, degrees counting self entries; no
    activation.

    P runs at the narrower width: (P h) W when h has fewer columns than W,
    else P (h W). A constant h (the features, dropped out or not) is
    aggregated off the tape, and a CSR h stays CSR.

    `index` is a SegmentIndex, or rows of its propagation matrix (as a
    `ReceptiveField` holds them).
    """
    adj = index.normalized if isinstance(index, SegmentIndex) else index
    if h.shape[1] >= W.shape[1]:
        return engine.matmul(adj, engine.matmul(h, W))
    return engine.matmul(engine.matmul(adj, h) if isinstance(h, Tensor) else adj @ h, W)


# ---------------------------------------------------------------------------
# receptive fields


@dataclass(frozen=True, eq=False)
class ReceptiveField:
    """What a two-layer evaluation forward reads to give its outputs at
    `nodes` exactly, bit for bit as the full-graph forward gives them there.

    `rows` are the feature rows it reads (sorted node ids): `nodes` for
    mlp, and for the other architectures N2, the in-neighbourhood of N1,
    which is the in-neighbourhood of `nodes`. `layer1` and `layer2` take
    the graph index's place in each layer: for gcn the rows N1 and then
    `nodes` of its propagation matrix, with columns renumbered; for the
    attention models a SegmentIndex over N2 (then N1), numbered in sorted
    order, in which N1's (then `nodes`') groups are whole and every other
    node keeps only its self entry. `keep1` and `keep2` are the rows of
    each attention layer's output that the next step reads.
    """

    nodes: np.ndarray
    rows: np.ndarray
    layer1: SegmentIndex | sp.csr_matrix | None = None
    layer2: SegmentIndex | sp.csr_matrix | None = None
    keep1: np.ndarray | None = None
    keep2: np.ndarray | None = None

    def features_of(self, features):
        """The field's rows of a dense or CSR feature matrix."""
        return features[self.rows] if sp.issparse(features) else np.take(features, self.rows,
                                                                          axis=0)


def _sub_index(index: SegmentIndex, whole: np.ndarray, rows: np.ndarray) -> SegmentIndex:
    """The groups of `rows`: whole where the entry mask `whole` holds, else
    only the self entry."""
    keep = whole.copy()
    keep[index.self_pos] = True
    return index.select(keep, rows)


def receptive_field(index: SegmentIndex, nodes, architecture: str) -> ReceptiveField:
    """The receptive field of `nodes` in a two-layer `architecture` model:
    0 hops for mlp, 2 for the message-passing models. Built without a
    per-node loop; every group of `index` must hold one self entry."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if architecture == "mlp":
        return ReceptiveField(nodes=nodes, rows=nodes)
    into_nodes = np.isin(index.targets, nodes)  # self entries make nodes part of inner
    inner = np.unique(index.sources[into_nodes])
    into_inner = np.isin(index.targets, inner)
    outer = np.unique(index.sources[into_inner])
    if architecture == "gcn":
        return ReceptiveField(nodes=nodes, rows=outer,
                              layer1=index.normalized[inner][:, outer],
                              layer2=index.normalized[nodes][:, inner])
    return ReceptiveField(nodes=nodes, rows=outer,
                          layer1=_sub_index(index, into_inner, outer),
                          layer2=_sub_index(index, into_nodes, inner),
                          keep1=np.searchsorted(outer, inner),
                          keep2=np.searchsorted(inner, nodes))


# ---------------------------------------------------------------------------
# full models


def model_forward(config: ModelConfig, params: dict[str, Tensor], features,
                  index: SegmentIndex | ReceptiveField, training: TrainConfig | None = None,
                  rng: np.random.Generator | None = None) -> ModelOutputs:
    """Two-layer forward pass for any architecture.

    Layer k takes its index (the field's `layer{k}`, or the graph index
    after drop-edge; none for mlp), runs the architecture's op, in a field
    forward keeps the field's `keep{k}` rows of the output and the mean
    scores, and applies ELU (k = 1) or the row softmax (k = 2).

    `features` may be a dense ndarray or a scipy CSR constant; gradients
    never flow into it. `training` is the run's TrainConfig in a training
    pass and None in evaluation. Its dropout and drop-edge rates draw
    from `rng` in a fixed order (input dropout, layer-1 edges, hidden
    dropout, layer-2 edges).

    `index` is the graph's index, or in evaluation a ReceptiveField of it
    built for this architecture. Then `features` holds the field's rows
    (`field.features_of`), and the outputs have one row per field node.
    """
    dropout_p = training.dropout_p if training else 0.0
    drop_edge_p = training.drop_edge_p if training else 0.0
    if (dropout_p > 0 or drop_edge_p > 0) and rng is None:
        raise ConfigError("training-mode forward needs an rng for dropout draws")
    field = index if isinstance(index, ReceptiveField) else None
    if field is not None and training is not None:
        raise ConfigError("a receptive-field forward is an evaluation forward")
    if field is not None and features.shape[0] != len(field.rows):
        raise ConfigError(f"the receptive field reads {len(field.rows)} feature rows, "
                          f"got {features.shape[0]}")
    arch = config.architecture
    attention = ATTENTION.get(arch)
    h = _input_dropout(features, dropout_p, rng) if dropout_p > 0 else features
    scores = []  # each layer's mean score, None without one
    for k in (1, 2):
        W, score = params[f"l{k}.W"], None
        if arch != "mlp":
            idx = getattr(field, f"layer{k}") if field else drop_edge(index, drop_edge_p, rng)
        if attention:
            h, score = engine.attention(engine.matmul(h, W), params[f"l{k}.{attention.param}"],
                                        idx, attention.kind, average=k == 2)
        else:
            h = gcn_layer(h, idx, W) if arch == "gcn" else engine.matmul(h, W)
        scores.append(score)
        keep = getattr(field, f"keep{k}") if field else None
        if keep is not None:  # both steps below act row by row
            h, *scores = [t if t is None else engine.take_rows(t, keep) for t in (h, *scores)]
        h = engine.elu(h) if k == 1 else engine.row_softmax(h)
        if k == 1 and dropout_p > 0:
            h = engine.dropout(h, dropout_p, rng)
    return ModelOutputs(h, *scores)


def clone_params(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Deep copy of parameter values (checkpointing inside the trainer)."""
    return {name: t.values.copy() for name, t in params.items()}


def restore_params(params: dict[str, Tensor], snapshot: dict[str, np.ndarray]) -> None:
    for name, t in params.items():
        t.values = snapshot[name].copy()
