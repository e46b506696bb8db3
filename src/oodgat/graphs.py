"""Graph data model, bundle IO, synthetic generation, homophily, edges, splits.

A graph bundle is a directory of plain text files (UTF-8, LF):

    edges.tsv      one undirected edge per line: "u<TAB>v", 0-based ids
    features.csv   row v = comma-separated real features of node v
    labels.tsv     one integer class id per line

Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import logging
import os
import shutil
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .engine import SegmentIndex, build_segment_index
from .errors import GraphDataError

log = logging.getLogger(__name__)

EDGE_CLASSES = ("intra_id", "intra_ood", "inter")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with node features, class labels, and ID/OOD flags.

    `edges` stores each undirected edge once as (min, max), lexicographically
    sorted, with no self-loops. `features` has one form, the one the
    models read: a canonical CSR matrix when under a quarter of its
    entries are nonzero, else the dense float64 array. identity[v] is 0
    for in-distribution nodes and 1 for out-of-distribution nodes. Graphs
    compare and hash by identity, as the cached index below assumes.
    """

    num_nodes: int
    edges: np.ndarray          # (m, 2) int64, u < v
    features: np.ndarray | sp.csr_matrix  # (num_nodes, d) float64
    labels: np.ndarray         # (num_nodes,) int64
    identity: np.ndarray       # (num_nodes,) int8

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes)

    # Built on first use and kept with the graph, so training and
    # evaluation on one graph share them.

    @cached_property
    def index(self) -> SegmentIndex:
        """Message-passing index: both edge directions plus self entries."""
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        return build_segment_index(src, dst, self.num_nodes)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint boolean node masks for train/val/test."""

    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        t, v, s = self.train_mask, self.val_mask, self.test_mask
        if not (len(t) == len(v) == len(s)):
            raise GraphDataError("split masks must have equal length")
        if np.any((t.astype(int) + v.astype(int) + s.astype(int)) > 1):
            raise GraphDataError("split masks overlap")


@dataclass(frozen=True)
class EdgePartition:
    """Indices into Graph.edges keyed by endpoint identity flags."""

    intra_id: np.ndarray
    intra_ood: np.ndarray
    inter: np.ndarray


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model with Gaussian class-mean features."""

    classes: int
    nodes_per_class: int
    p_intra: float
    p_inter: float
    feature_dim: int
    class_mean_separation: float
    ood_classes: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "ood_classes", frozenset(int(c) for c in self.ood_classes))
        if self.classes < 1:
            raise GraphDataError("degenerate block model: needs at least 1 class")
        if self.nodes_per_class < 1:
            raise GraphDataError("nodes_per_class must be positive")
        if not (0.0 <= self.p_inter <= self.p_intra <= 1.0):
            raise GraphDataError("homophilic generation needs 0 <= p_inter <= p_intra <= 1")
        if self.feature_dim < 1:
            raise GraphDataError("feature_dim must be positive")
        if self.class_mean_separation < 0:
            raise GraphDataError("class_mean_separation must be >= 0")
        if not self.ood_classes or not self.ood_classes < set(range(self.classes)):
            raise GraphDataError("ood_classes must be a proper nonempty subset of the classes")


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort endpoints within each edge, then lexicographically, then dedup.

    An edge list already in that form is copied without the sort.
    """
    if len(edges) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    if (u < v).all() and ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return np.array(edges, dtype=np.int64, order="C")
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    pairs = np.stack([lo, hi], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    keep = np.ones(len(pairs), dtype=bool)
    keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
    return np.ascontiguousarray(pairs[keep])


def _sparse_enough(nonzeros: int, shape: tuple[int, int]) -> bool:
    """The feature form rule: CSR when under a quarter of the entries are nonzero."""
    return nonzeros / max(shape[0] * shape[1], 1) < 0.25


def _feature_form(features):
    """Checked float64 features in their one form (see `Graph`). A CSR
    input is copied in canonical form: sorted indices, no duplicate and no
    stored zero entries. Raises GraphDataError on a non-finite value."""
    if sp.issparse(features):
        features = sp.csr_matrix(features, dtype=np.float64, copy=True)
        features.sum_duplicates()
        bad = ~np.isfinite(features.data)
        if bad.any():
            row = np.searchsorted(features.indptr, np.argmax(bad), side="right") - 1
            raise GraphDataError(f"feature row {row} has a non-finite value")
        features.eliminate_zeros()
        # the one place outside the bundle writer that densifies a CSR
        return features if _sparse_enough(features.nnz, features.shape) else features.toarray()
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise GraphDataError(f"feature row {int(np.argmin(finite))} has a non-finite value")
    if _sparse_enough(np.count_nonzero(features), features.shape):
        return sp.csr_matrix(features)
    return features


def make_graph(num_nodes: int, edges, features, labels, identity) -> Graph:
    """Assemble a Graph, canonicalizing edges and validating every invariant.

    `features` may be dense or a scipy sparse matrix; the Graph keeps the
    form that `_feature_form` chooses.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not sp.issparse(features):
        features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    identity = np.asarray(identity, dtype=np.int8)

    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise GraphDataError(f"feature matrix must have {num_nodes} rows, got {features.shape}")
    features = _feature_form(features)
    if labels.shape != (num_nodes,):
        raise GraphDataError("label vector length mismatch")
    if identity.shape != (num_nodes,):
        raise GraphDataError("identity vector length mismatch")
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise GraphDataError("edge endpoint out of range")
    if len(edges) and np.any(edges[:, 0] == edges[:, 1]):
        raise GraphDataError("self-loops must be dropped before graph assembly")
    if len(labels) and labels.min() < 0:
        raise GraphDataError("labels must be >= 0")
    # each class maps to exactly one identity flag
    for c in np.unique(labels):
        flags = np.unique(identity[labels == c])
        if len(flags) > 1:
            raise GraphDataError(f"class {c} maps to both identity flags")

    return Graph(num_nodes=num_nodes, edges=_canonical_edges(edges),
                 features=features, labels=labels, identity=identity)


# ---------------------------------------------------------------------------
# bundle IO


def _table(path: Path, sep: str | None, dtype) -> np.ndarray:
    """The (rows, width) table of a bundle file's non-blank lines, parsed
    by numpy (`sep` None splits on whitespace); an empty (0, 1) table if
    there are none. Raises GraphDataError naming the file on bytes that
    are not UTF-8 and on any value or row numpy rejects."""
    if not path.is_file():
        raise GraphDataError(f"missing bundle file: {path}")
    try:
        # universal newlines: "\r\n" and a lone "\r" end a line too
        lines = [ln for ln in path.read_text(encoding="utf-8").split("\n") if ln.strip()]
        if not lines:
            return np.zeros((0, 1), dtype=dtype)
        return np.loadtxt(lines, dtype=dtype, delimiter=sep, comments=None, ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise GraphDataError(f"{path.name}: {exc}") from None


def _id_table(path: Path, sep: str | None, width: int) -> np.ndarray:
    """The (rows, width) int64 ids of labels.tsv or edges.tsv."""
    table = _table(path, sep, np.int64)
    if len(table) and table.shape[1] != width:
        raise GraphDataError(f"{path.name}: expected {width} id(s) per line, "
                             f"got {table.shape[1]}")
    return table.reshape(-1, width)


_NEWLINE = ord("\n")


def _digit_table(path: Path) -> np.ndarray | None:
    """The (rows, width) uint8 digit table of a features.csv whose every
    value is one ASCII digit, with "," between the values of a row and
    "\n" after each row (optional after the last); else None. A first row
    that is not such a row declines the file before the rest is read.
    Besides the file's bytes, at most one array of a byte per value is
    alive at a time."""
    if not path.is_file():
        return None
    with open(path, "rb") as fh:
        first = fh.readline()
    tokens = first.removesuffix(b"\n").split(b",")
    if not all(len(t) == 1 and t.isdigit() for t in tokens):
        return None
    width = len(tokens)
    u = np.fromfile(path, dtype=np.uint8)
    if u[-1] != _NEWLINE:
        u = np.append(u, np.uint8(_NEWLINE))
    if len(u) % (2 * width):
        return None
    # every even byte is a digit and every odd byte the value's terminator
    terminators = u[1::2].reshape(-1, width)
    if not ((terminators[:, -1] == _NEWLINE).all() and (terminators[:, :-1] == ord(",")).all()):
        return None
    digits = u[0::2] - np.uint8(48)  # a non-digit byte wraps past 9
    if digits.max() > 9:
        return None
    return digits.reshape(-1, width)


def _digit_features(digits: np.ndarray):
    """A one-digit feature table in its `Graph` form: a CSR built from the
    nonzero digits alone when sparse enough, so the dense float64 table is
    never made, else that dense table."""
    if not _sparse_enough(np.count_nonzero(digits), digits.shape):
        return digits.astype(np.float64)
    flat = digits.ravel()
    nz = np.flatnonzero(flat != 0)  # numpy finds a boolean array's nonzeros fastest
    rows, width = digits.shape
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(nz // width, minlength=rows), out=indptr[1:])
    # scipy narrows the index arrays to int32 where they fit, as it does
    # when it converts a dense matrix
    return sp.csr_matrix((flat[nz].astype(np.float64), nz % width, indptr), shape=digits.shape)


def _read_features(path: Path, num_nodes: int):
    digits = _digit_table(path)
    table = _table(path, ",", np.float64) if digits is None else digits
    if len(table) != num_nodes:
        raise GraphDataError(f"features.csv has {len(table)} rows, labels.tsv has {num_nodes}")
    return table if digits is None else _digit_features(digits)


def load_graph_bundle(path, ood_classes) -> Graph:
    """Load a bundle directory; identity[v] = 1 iff labels[v] is in ood_classes.

    Self-loops and duplicate undirected edges are dropped with a logged
    warning count. Labels must be contiguous from 0.
    """
    root = Path(path)
    ood_classes = {int(c) for c in ood_classes}
    if not ood_classes:
        raise GraphDataError("ood_classes is empty; at least one class must be out-of-distribution")

    # whitespace around a label is ignored, tabs included
    labels = _id_table(root / "labels.tsv", None, 1)[:, 0]
    num_nodes = len(labels)
    if num_nodes == 0:
        raise GraphDataError("labels.tsv lists no nodes")
    features = _read_features(root / "features.csv", num_nodes)
    raw = _id_table(root / "edges.tsv", "\t", 2)
    if ((raw < 0) | (raw >= num_nodes)).any():
        raise GraphDataError("edges.tsv references a node id out of range")

    loops = raw[:, 0] == raw[:, 1]
    clean = raw[~loops]
    canonical = _canonical_edges(clean)
    self_loops, duplicates = int(loops.sum()), len(clean) - len(canonical)
    if self_loops or duplicates:
        log.warning("dropped %d self-loop(s) and %d duplicate edge(s) while loading %s",
                    self_loops, duplicates, root)

    if labels.min() < 0:
        raise GraphDataError(f"labels.tsv: label {labels.min()} is below 0")
    present = set(np.unique(labels).tolist())
    expected = set(range(int(labels.max()) + 1))
    if present != expected:
        raise GraphDataError(f"labels.tsv: labels must be contiguous from 0; "
                             f"missing {sorted(expected - present)}")
    unknown = ood_classes - present
    if unknown:
        raise GraphDataError(f"ood_classes references unknown class(es) {sorted(unknown)}")
    if ood_classes >= present:
        raise GraphDataError("ood_classes covers every class; at least one ID class is required")

    identity = np.isin(labels, sorted(ood_classes)).astype(np.int8)
    try:
        return make_graph(num_nodes, canonical, features, labels, identity)
    except GraphDataError as exc:  # the ids are checked above, so the features are at fault
        raise GraphDataError(f"features.csv: {exc}") from None


def _write_atomic(path: Path, lines: Iterable[str]) -> None:
    """Write a UTF-8 text file whole or not at all.

    The lines go to a temp file in the same directory, which then
    replaces `path` in one rename. If producing or writing a line raises,
    `path` keeps its previous content and the temp file is removed. As
    with an in-place write, a symlink at `path` is followed (the file it
    names is replaced) and a file already there keeps its permission bits.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        try:
            shutil.copymode(path, tmp)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dense_rows(features):
    """The rows of a dense or CSR matrix as dense 1-D arrays, one at a time."""
    if not sp.issparse(features):
        return iter(features)
    return (features[i:i + 1].toarray()[0] for i in range(features.shape[0]))


def save_graph_bundle(graph: Graph, path) -> None:
    """Write a Graph back out in bundle format (round-trips exactly); each
    file is written whole or not at all. CSR features are written one
    dense row at a time, as their dense twin would be."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_atomic(root / "edges.tsv", (f"{u}\t{v}\n" for u, v in graph.edges))
    # repr round-trips doubles exactly
    _write_atomic(root / "features.csv", (",".join(repr(float(x)) for x in row) + "\n"
                                          for row in _dense_rows(graph.features)))
    _write_atomic(root / "labels.tsv", (f"{y}\n" for y in graph.labels))


# ---------------------------------------------------------------------------
# homophily


def node_homophily(graph: Graph, node_labels) -> float:
    """Mean over degree>=1 nodes of the same-label neighbor fraction.

    Isolated nodes are excluded: the per-node ratio divides by the degree
    and is undefined at 0.
    """
    node_labels = np.asarray(node_labels)
    if node_labels.shape != (graph.num_nodes,):
        raise GraphDataError("label vector length mismatch")
    deg = graph.degrees
    if not np.any(deg > 0):
        raise GraphDataError("homophily is undefined on an edgeless graph")
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    same = (node_labels[u] == node_labels[v]).astype(np.float64)
    # whole-number sums per endpoint, so the addition order cannot matter
    sums = (np.bincount(u, weights=same, minlength=graph.num_nodes)
            + np.bincount(v, weights=same, minlength=graph.num_nodes))
    active = deg > 0
    return float((sums[active] / deg[active]).mean())


def identity_homophily(graph: Graph, mapping) -> float:
    """Homophily of the labels pushed through a class -> {0,1} mapping."""
    present = np.unique(graph.labels)
    missing = [int(c) for c in present if int(c) not in mapping]
    if missing:
        raise GraphDataError(f"mapping undefined for class(es) {missing}")
    lut = np.zeros(int(present.max()) + 1, dtype=np.int64)
    for c in present:
        lut[int(c)] = int(mapping[int(c)])
    return node_homophily(graph, lut[graph.labels])


def relabel_for_training(graph: Graph) -> tuple[Graph, dict[int, int]]:
    """Permute class ids so ID classes occupy 0..C_id-1.

    Classifier heads index class columns directly, so the ID label space
    must be dense from zero. Sorted ID classes come first, sorted OOD
    classes after; identity flags are untouched. Returns the relabeled
    graph and the old -> new class map. Already-ordered graphs come back
    with unchanged label values.
    """
    present = np.unique(graph.labels)
    id_classes = [int(c) for c in present if graph.identity[graph.labels == c][0] == 0]
    ood_classes = [int(c) for c in present if int(c) not in id_classes]
    class_map = {old: new for new, old in enumerate(id_classes + ood_classes)}
    lut = np.zeros(int(present.max()) + 1, dtype=np.int64)
    for old, new in class_map.items():
        lut[old] = new
    return replace(graph, labels=lut[graph.labels]), class_map


# ---------------------------------------------------------------------------
# edge partition / filtering


def partition_edges(graph: Graph) -> EdgePartition:
    """Split edge indices into intra-ID, intra-OOD, and inter classes."""
    a = graph.identity[graph.edges[:, 0]]
    b = graph.identity[graph.edges[:, 1]]
    idx = np.arange(graph.num_edges, dtype=np.int64)
    return EdgePartition(
        intra_id=idx[(a == 0) & (b == 0)],
        intra_ood=idx[(a == 1) & (b == 1)],
        inter=idx[a != b],
    )


def filter_edges(graph: Graph, keep, removal_fraction: float, seed: int) -> Graph:
    """Subsample edge classes NOT named in `keep` by `removal_fraction`.

    Kept classes pass through untouched; each other class loses
    round(fraction * count) edges chosen uniformly under the seed.
    Fraction 0 is the identity transformation; fraction 1 deletes the
    class entirely. The result shares features/labels with the input.
    """
    keep = set(keep)
    unknown = keep - set(EDGE_CLASSES)
    if unknown:
        raise GraphDataError(f"unknown edge class(es) {sorted(unknown)}; valid: {EDGE_CLASSES}")
    if not 0.0 <= removal_fraction <= 1.0:
        raise GraphDataError("removal_fraction must lie in [0, 1]")

    part = partition_edges(graph)
    rng = np.random.default_rng(seed)
    selected = np.ones(graph.num_edges, dtype=bool)
    for name in EDGE_CLASSES:  # fixed order keeps the rng stream deterministic
        if name in keep:
            continue
        members = getattr(part, name)
        n_drop = int(round(removal_fraction * len(members)))
        if n_drop:
            drop = rng.choice(members, size=n_drop, replace=False)
            selected[drop] = False

    new_edges = graph.edges[selected]
    if len(new_edges) == 0:
        log.warning("edge filter produced an edgeless graph")
    return replace(graph, edges=new_edges)


# ---------------------------------------------------------------------------
# splits


TRAIN_PER_CLASS = 20
VAL_PER_CLASS = 10


def split_classes(graph: Graph, n_train_per_class: int = TRAIN_PER_CLASS,
                  n_val_per_class: int = VAL_PER_CLASS) -> list[int]:
    """The sorted ID classes that `make_splits` draws from, once it is
    known that it can draw them: every ID class needs n_train_per_class +
    n_val_per_class nodes, and the OOD nodes must number n_val_per_class
    per ID class. Raises GraphDataError otherwise."""
    id_labels = graph.labels[graph.identity == 0]
    id_classes = sorted(int(c) for c in np.unique(id_labels))
    if not id_classes:
        raise GraphDataError("no ID classes present")
    counts = np.bincount(id_labels)
    need = n_train_per_class + n_val_per_class
    for c in id_classes:
        if counts[c] < need:
            raise GraphDataError(f"class {c} has {counts[c]} nodes, needs {need} for train+val")
    n_ood = int(np.count_nonzero(graph.identity == 1))
    n_val_ood = n_val_per_class * len(id_classes)
    if n_ood < n_val_ood:
        raise GraphDataError(f"{n_ood} OOD nodes available, validation needs {n_val_ood}")
    return id_classes


def make_splits(graph: Graph, n_train_per_class: int = TRAIN_PER_CLASS,
                n_val_per_class: int = VAL_PER_CLASS, seed: int = 0) -> SplitAssignment:
    """Per-class training/validation sampling; everything else is test.

    Train takes n_train_per_class nodes from every ID class. Validation
    takes n_val_per_class more from every ID class plus the same total
    count of OOD nodes. Sampling is uniform without replacement and fully
    determined by the seed.
    """
    rng = np.random.default_rng(seed)
    id_classes = split_classes(graph, n_train_per_class, n_val_per_class)

    train = np.zeros(graph.num_nodes, dtype=bool)
    val = np.zeros(graph.num_nodes, dtype=bool)
    need = n_train_per_class + n_val_per_class
    for c in id_classes:
        members = np.flatnonzero((graph.labels == c) & (graph.identity == 0))
        chosen = rng.choice(members, size=need, replace=False)
        train[chosen[:n_train_per_class]] = True
        val[chosen[n_train_per_class:]] = True

    ood_members = np.flatnonzero(graph.identity == 1)
    val[rng.choice(ood_members, size=n_val_per_class * len(id_classes), replace=False)] = True

    test = ~(train | val)
    return SplitAssignment(train_mask=train, val_mask=val, test_mask=test)


# ---------------------------------------------------------------------------
# synthetic graphs


def sbm_generate(spec: SbmSpec, seed: int) -> Graph:
    """Block-model graph with Gaussian class-mean features.

    Each class mean sits at class_mean_separation times a deterministic
    (seed-drawn) unit direction; features add unit isotropic noise.
    """
    rng = np.random.default_rng(seed)
    n = spec.classes * spec.nodes_per_class
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.nodes_per_class)

    directions = rng.standard_normal((spec.classes, spec.feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    features = directions[labels] * spec.class_mean_separation \
        + rng.standard_normal((n, spec.feature_dim))

    prob = np.where(labels[:, None] == labels[None, :], spec.p_intra, spec.p_inter)
    draw = rng.random((n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    adj = (draw < prob) & upper
    edges = np.argwhere(adj).astype(np.int64)

    identity = np.isin(labels, sorted(spec.ood_classes)).astype(np.int8)
    return make_graph(n, edges, features, labels, identity)


def er_generate(num_nodes: int, p: float, num_classes: int, seed: int) -> Graph:
    """Erdős–Rényi graph with uniform random labels (property-test fodder)."""
    rng = np.random.default_rng(seed)
    draw = rng.random((num_nodes, num_nodes))
    upper = np.triu(np.ones((num_nodes, num_nodes), dtype=bool), k=1)
    edges = np.argwhere((draw < p) & upper).astype(np.int64)
    labels = rng.integers(0, num_classes, size=num_nodes)
    identity = np.zeros(num_nodes, dtype=np.int8)
    features = np.zeros((num_nodes, 1))
    return make_graph(num_nodes, edges, features, labels, identity)
