"""Seeded graph generators for the benchmark, and a bundle writer.

Both generators are independent of the oodgat package: the program under
test only ever sees the bundle directory they write (edges.tsv,
features.csv, labels.tsv), the same format as a real citation bundle.

- `cora_shaped` mimics the Cora citation graph: 2708 nodes in 7 classes
  of Cora's sizes, 1433-dim binary bag-of-words features at about 1.3%
  density and about 10.5k undirected edges with heavy-tailed degrees.
- `sparse_sbm` is a stochastic block model drawn block by block (a
  binomial edge count per block pair, then that many distinct uniform
  pairs), so it never materialises the dense n x n matrix that
  `oodgat.graphs.sbm_generate` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)
CORA_FEATURES = 1433
CORA_EDGES = 10_500
# words per node are uniform on [12, 25]: mean 18.5 of 1433, 1.29% density
CORA_WORDS = (12, 26)
# Each class owns a topic of 60 words; a word is drawn from the node's
# topic with probability 0.12, otherwise from the whole vocabulary, and
# an edge is drawn inside its class with probability 0.65 (real Cora:
# about 0.81). Both are set so that neither accuracy nor detection
# saturates: at 0.2 and 0.72, oodgat reached 0.98 test accuracy.
CORA_TOPIC_WORDS = 60
CORA_TOPIC_SHARE = 0.12
CORA_HOMOPHILY = 0.65

SBM10K_CLASSES = 8
SBM10K_NODES_PER_CLASS = 1250
SBM10K_FEATURES = 16
# 6.245M intra-block and 43.75M inter-block pairs: about 40.6k + 16.6k edges
SBM10K_P_INTRA = 0.0065
SBM10K_P_INTER = 0.00038
SBM10K_SEPARATION = 1.0


@dataclass(frozen=True)
class GraphData:
    edges: np.ndarray      # (m, 2) int64, u < v, lexicographically sorted
    features: np.ndarray   # (n, d)
    labels: np.ndarray     # (n,) int64

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """Drop self-loops, order each pair (u < v), sort, deduplicate."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0)


def cora_shaped(seed: int) -> GraphData:
    """A Cora-shaped citation graph drawn from `seed`."""
    rng = np.random.default_rng(seed)
    sizes = np.array(CORA_CLASS_SIZES)
    n, d = int(sizes.sum()), CORA_FEATURES
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    topics = np.stack([rng.choice(d, CORA_TOPIC_WORDS, replace=False)
                       for _ in sizes])
    words = rng.integers(*CORA_WORDS, size=n)
    owner = np.repeat(np.arange(n), words)
    from_topic = rng.random(len(owner)) < CORA_TOPIC_SHARE
    word = np.where(from_topic,
                    topics[labels[owner], rng.integers(0, CORA_TOPIC_WORDS, len(owner))],
                    rng.integers(0, d, len(owner)))
    features = np.zeros((n, d), dtype=np.uint8)
    features[owner, word] = 1

    # heavy-tailed attachment weights give a few hub papers
    weight = rng.pareto(2.0, n) + 1.0
    members = [np.flatnonzero(labels == c) for c in range(len(sizes))]
    class_cdf = [np.cumsum(weight[m]) / weight[m].sum() for m in members]
    all_cdf = np.cumsum(weight) / weight.sum()

    edges = np.zeros((0, 2), dtype=np.int64)
    while len(edges) < CORA_EDGES:
        k = 2 * CORA_EDGES
        src = np.searchsorted(all_cdf, rng.random(k), side="right")
        dst = np.searchsorted(all_cdf, rng.random(k), side="right")
        same = rng.random(k) < CORA_HOMOPHILY
        u = rng.random(k)
        for c, m in enumerate(members):
            pick = same & (labels[src] == c)
            dst[pick] = m[np.searchsorted(class_cdf[c], u[pick], side="right")]
        # a cross-class draw that landed inside its own class is dropped
        keep = same | (labels[src] != labels[dst])
        cand = np.concatenate([edges, np.stack([src[keep], dst[keep]], axis=1)])
        edges = _canonical(cand)
    # keep a seeded random subset of exactly CORA_EDGES distinct edges
    chosen = np.sort(rng.choice(len(edges), CORA_EDGES, replace=False))
    return GraphData(edges=edges[chosen], features=features, labels=labels)


def _upper_pairs(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear ids 0 .. n(n-1)/2 - 1 to the pairs (i, j), i < j, row-major."""
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, t, side="right") - 1
    return i, i + 1 + (t - starts[i])


def block_pair_counts(sizes, p_intra: float, p_inter: float):
    """(a, b, possible pairs, edge probability) for every block pair a <= b."""
    out = []
    for a in range(len(sizes)):
        for b in range(a, len(sizes)):
            if a == b:
                out.append((a, b, sizes[a] * (sizes[a] - 1) // 2, p_intra))
            else:
                out.append((a, b, sizes[a] * sizes[b], p_inter))
    return out


def sparse_sbm(seed: int, classes: int = SBM10K_CLASSES,
               nodes_per_class: int = SBM10K_NODES_PER_CLASS,
               p_intra: float = SBM10K_P_INTRA, p_inter: float = SBM10K_P_INTER,
               feature_dim: int = SBM10K_FEATURES,
               separation: float = SBM10K_SEPARATION) -> GraphData:
    """Block model with Gaussian class-mean features, in O(edges) memory.

    Needs classes <= feature_dim for the orthonormal class directions.
    """
    rng = np.random.default_rng(seed)
    sizes = [nodes_per_class] * classes
    first = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(classes, dtype=np.int64), nodes_per_class)

    # orthonormal class directions put every pair of class means equally
    # far apart, so the seed does not decide which classes are easy to tell
    directions = np.linalg.qr(rng.standard_normal((feature_dim, classes)))[0].T
    features = directions[labels] * separation \
        + rng.standard_normal((len(labels), feature_dim))

    parts = []
    for a, b, pairs, p in block_pair_counts(sizes, p_intra, p_inter):
        count = int(rng.binomial(pairs, p))
        t = rng.choice(pairs, size=count, replace=False)
        if a == b:
            i, j = _upper_pairs(sizes[a], t)
        else:
            i, j = t // sizes[b], t % sizes[b]
        parts.append(np.stack([first[a] + i, first[b] + j], axis=1))
    edges = np.concatenate(parts).astype(np.int64)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return GraphData(edges=edges[order], features=features, labels=labels)


def write_bundle(graph: GraphData, root) -> None:
    """Write the bundle files; binary features are written as 0/1 digits."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in graph.edges.tolist()),
        encoding="utf-8", newline="\n")
    feats = graph.features
    if feats.dtype == np.uint8:
        n, d = feats.shape
        buf = np.full((n, 2 * d), ord(","), dtype=np.uint8)
        buf[:, 0::2] = feats + ord("0")
        buf[:, -1] = ord("\n")
        (root / "features.csv").write_bytes(buf.tobytes())
    else:
        (root / "features.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in feats.tolist()),
            encoding="utf-8", newline="\n")
    (root / "labels.tsv").write_text(
        "".join(f"{y}\n" for y in graph.labels.tolist()),
        encoding="utf-8", newline="\n")
