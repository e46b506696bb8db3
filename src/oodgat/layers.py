"""Model definitions: MLP, GCN, GAT, and the OOD-aware attention network.

The OOD-aware layer scores every node with a per-head binary classifier
w(v) = sigmoid(a^T W h_v) and turns score agreement into edge attention:
e_ij = 1 - |w(i) - w(j)|, normalized per neighborhood. Self entries get
e = 1 automatically. All architectures are two-layer; the prediction
layer averages heads and applies a row softmax, so model outputs are
probability rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from . import engine
from .engine import SegmentIndex, Tensor, build_segment_index
from .errors import ConfigError
from .graphs import Graph

ARCHITECTURES = ("mlp", "gcn", "gat", "oodgat")

# hidden widths when the config leaves hidden_dim at 0: attention models
# get per-head width, the dense baselines get a single wider layer
DEFAULT_WIDTH = {"mlp": 64, "gcn": 64, "gat": 32, "oodgat": 32}


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    num_classes: int
    hidden_dim: int = 0          # 0 = architecture default
    heads: int = 1
    dropout_p: float = 0.0
    drop_edge_p: float = 0.0
    activation: str = "elu"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.num_classes < 2:
            raise ConfigError("need at least 2 ID classes")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.architecture in ("mlp", "gcn") and self.heads != 1:
            raise ConfigError(f"{self.architecture} has no attention heads; set heads=1")
        if not 0.0 <= self.dropout_p < 1.0 or not 0.0 <= self.drop_edge_p < 1.0:
            raise ConfigError("dropout rates must lie in [0, 1)")
        if self.activation not in ("elu", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
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


def _activation(name: str):
    return engine.elu if name == "elu" else engine.relu


# ---------------------------------------------------------------------------
# parameter construction


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


def init_params(config: ModelConfig, in_dim: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """Create the named parameter set for a two-layer model.

    Weight matrices are Glorot-uniform. OOD score vectors start at zero,
    which puts every initial score at 0.5 and every edge attention at the
    uniform value.
    """
    width, heads, C = config.width, config.heads, config.num_classes
    params: dict[str, Tensor] = {}
    if config.architecture in ("mlp", "gcn"):
        params["l1.W"] = _glorot(rng, in_dim, width)
        params["l2.W"] = _glorot(rng, width, C)
    elif config.architecture == "gat":
        for k in range(heads):
            params[f"l1.h{k}.W"] = _glorot(rng, in_dim, width)
            params[f"l1.h{k}.attn"] = _glorot(rng, 2 * width, 1)
        for k in range(heads):
            params[f"l2.h{k}.W"] = _glorot(rng, heads * width, C)
            params[f"l2.h{k}.attn"] = _glorot(rng, 2 * C, 1)
    else:  # oodgat
        for k in range(heads):
            params[f"l1.h{k}.W"] = _glorot(rng, in_dim, width)
            params[f"l1.h{k}.a"] = Tensor(np.zeros((width, 1)), requires_grad=True)
        for k in range(heads):
            params[f"l2.h{k}.W"] = _glorot(rng, heads * width, C)
            params[f"l2.h{k}.a"] = Tensor(np.zeros((C, 1)), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# graph index helpers


def graph_index(graph: Graph) -> SegmentIndex:
    """Message-passing index for a graph: both edge directions plus self entries."""
    src = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    dst = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    return build_segment_index(src, dst, graph.num_nodes)


def drop_edge(index: SegmentIndex, p: float, rng: np.random.Generator) -> SegmentIndex:
    """Remove each non-self entry independently with probability p."""
    if p == 0.0:
        return index
    keep = rng.random(index.num_entries) >= p
    keep[index.self_pos] = True  # the self term of the aggregation is fixed
    targets = index.targets[keep]
    sources = index.sources[keep]
    counts = np.bincount(targets, minlength=index.num_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return SegmentIndex(targets=targets, sources=sources, offsets=offsets,
                        num_nodes=index.num_nodes,
                        self_pos=np.flatnonzero(targets == sources))


def _input_dropout(x, p: float, rng: np.random.Generator):
    """Feature dropout that preserves sparsity for sparse constants."""
    if sp.issparse(x):
        keep = rng.random(x.nnz) >= p
        data = np.where(keep, x.data / (1.0 - p), 0.0)
        return sp.csr_matrix((data, x.indices.copy(), x.indptr.copy()), shape=x.shape)
    return engine.dropout(x, p, rng)


# ---------------------------------------------------------------------------
# layer forwards


def oodgat_attention(scores: Tensor, index: SegmentIndex) -> Tensor:
    """Edge attention from node scores: softmax over e = 1 - |w_t - w_s|.

    Self entries compare a node with itself, so their raw e is exactly 1,
    the group maximum for scores inside [0, 1].
    """
    w_t = engine.gather_rows(scores, index.targets)
    w_s = engine.gather_rows(scores, index.sources)
    e = engine.sub(1.0, engine.absolute(engine.sub(w_t, w_s)))
    return engine.segment_softmax(e, index)


def oodgat_layer(h, index: SegmentIndex, weights: list[Tensor], score_vecs: list[Tensor],
                 combine: str, activation: str) -> tuple[Tensor, Tensor]:
    """One OOD-aware attention layer over all heads: (hidden, mean score).

    combine "concat" stacks head outputs and applies the activation
    (hidden layer); combine "average" averages heads and applies a row
    softmax (prediction layer). The mean score (n, 1) is the head average
    of the node scores.
    """
    if combine not in ("concat", "average"):
        raise ConfigError(f"unknown combine mode {combine!r}")
    act = _activation(activation)
    head_scores, aggregated = [], []
    for W, a in zip(weights, score_vecs):
        hw = engine.matmul(h, W)
        w = engine.sigmoid(engine.matmul(hw, a))
        aggregated.append(engine.spmm(oodgat_attention(w, index), hw, index))
        head_scores.append(w)
    mean_score = engine.scale(reduce(engine.add, head_scores), 1.0 / len(head_scores))
    if combine == "concat":
        hidden = act(engine.hstack(aggregated)) if len(aggregated) > 1 else act(aggregated[0])
    else:
        avg = engine.scale(reduce(engine.add, aggregated), 1.0 / len(aggregated))
        hidden = engine.row_softmax(avg)
    return hidden, mean_score


def gcn_layer(h, index: SegmentIndex, W: Tensor) -> Tensor:
    """D^-1/2 A D^-1/2 (h W), degrees counting self entries; no activation."""
    deg = np.diff(index.offsets).astype(np.float64)
    a_hat = index.csr(1.0 / np.sqrt(deg[index.targets] * deg[index.sources]))
    return engine.matmul(a_hat, engine.matmul(h, W))


def gat_layer(h, index: SegmentIndex, W: Tensor, attn_vec: Tensor) -> Tensor:
    """Single-head attention: e_ij = LeakyReLU_0.2(attn^T [Wh_i || Wh_j]).

    The concatenated form splits into a target half and a source half, so
    per-entry logits are a sum of two per-node projections.
    """
    hw = engine.matmul(h, W)
    d = hw.shape[1]
    left = engine.slice_rows(attn_vec, 0, d)
    right = engine.slice_rows(attn_vec, d, 2 * d)
    s_t = engine.matmul(hw, left)
    s_s = engine.matmul(hw, right)
    logits = engine.leaky_relu(engine.add(engine.gather_rows(s_t, index.targets),
                                          engine.gather_rows(s_s, index.sources)))
    return engine.spmm(engine.segment_softmax(logits, index), hw, index)


# ---------------------------------------------------------------------------
# full models


def model_forward(config: ModelConfig, params: dict[str, Tensor], features,
                  index: SegmentIndex, training: bool = False,
                  rng: np.random.Generator | None = None) -> ModelOutputs:
    """Two-layer forward pass for any architecture.

    `features` may be a dense ndarray or a scipy CSR constant; gradients
    never flow into it. Dropout and drop-edge fire only when training is
    True, drawing from `rng` in a fixed order (input dropout, layer-1
    edges, hidden dropout, layer-2 edges).
    """
    if training and (config.dropout_p > 0 or config.drop_edge_p > 0) and rng is None:
        raise ConfigError("training-mode forward needs an rng for dropout draws")
    act = _activation(config.activation)
    arch = config.architecture

    x = features
    if training and config.dropout_p > 0:
        x = _input_dropout(x, config.dropout_p, rng)

    if arch == "mlp":
        hidden = act(engine.matmul(x, params["l1.W"]))
        if training and config.dropout_p > 0:
            hidden = engine.dropout(hidden, config.dropout_p, rng)
        probs = engine.row_softmax(engine.matmul(hidden, params["l2.W"]))
        return ModelOutputs(probs=probs)

    idx1 = drop_edge(index, config.drop_edge_p, rng) if training else index
    if arch == "gcn":
        hidden = act(gcn_layer(x, idx1, params["l1.W"]))
        if training and config.dropout_p > 0:
            hidden = engine.dropout(hidden, config.dropout_p, rng)
        idx2 = drop_edge(index, config.drop_edge_p, rng) if training else index
        probs = engine.row_softmax(gcn_layer(hidden, idx2, params["l2.W"]))
        return ModelOutputs(probs=probs)

    if arch == "gat":
        heads = [gat_layer(x, idx1, params[f"l1.h{k}.W"], params[f"l1.h{k}.attn"])
                 for k in range(config.heads)]
        hidden = act(engine.hstack(heads)) if len(heads) > 1 else act(heads[0])
        if training and config.dropout_p > 0:
            hidden = engine.dropout(hidden, config.dropout_p, rng)
        idx2 = drop_edge(index, config.drop_edge_p, rng) if training else index
        outs = [gat_layer(hidden, idx2, params[f"l2.h{k}.W"], params[f"l2.h{k}.attn"])
                for k in range(config.heads)]
        avg = engine.scale(reduce(engine.add, outs), 1.0 / len(outs))
        probs = engine.row_softmax(avg)
        return ModelOutputs(probs=probs)

    # oodgat
    hidden, w1 = oodgat_layer(
        x, idx1,
        weights=[params[f"l1.h{k}.W"] for k in range(config.heads)],
        score_vecs=[params[f"l1.h{k}.a"] for k in range(config.heads)],
        combine="concat", activation=config.activation)
    if training and config.dropout_p > 0:
        hidden = engine.dropout(hidden, config.dropout_p, rng)
    idx2 = drop_edge(index, config.drop_edge_p, rng) if training else index
    probs, w2 = oodgat_layer(
        hidden, idx2,
        weights=[params[f"l2.h{k}.W"] for k in range(config.heads)],
        score_vecs=[params[f"l2.h{k}.a"] for k in range(config.heads)],
        combine="average", activation=config.activation)
    return ModelOutputs(probs=probs, w1=w1, w2=w2)


def maybe_sparse_features(features: np.ndarray):
    """Return a CSR copy when under a quarter of the features are nonzero."""
    density = np.count_nonzero(features) / max(features.size, 1)
    if density < 0.25:
        return sp.csr_matrix(features)
    return features


def clone_params(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Deep copy of parameter values (checkpointing inside the trainer)."""
    return {name: t.values.copy() for name, t in params.items()}


def restore_params(params: dict[str, Tensor], snapshot: dict[str, np.ndarray]) -> None:
    for name, t in params.items():
        t.values = snapshot[name].copy()
