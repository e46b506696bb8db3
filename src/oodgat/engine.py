"""Reverse-mode automatic differentiation over 2-D float64 matrices.

Every model in this package is expressed through the ops below. Each op
computes its value with numpy and, when a gradient tape is active in the
current thread, records a closure that maps the output gradient back to
input gradients. Tapes are single-use: one backward per recording.

Matrix constants (plain ndarrays or scipy sparse matrices) may be passed
wherever a Tensor is accepted; they take part in the forward computation
but never receive gradients. This is how node features stay sparse all
the way through the first linear layer without materialising a dense
copy.

Fused ops stand for chains of elementwise ops as one tape node each,
with a hand-written backward: the objective terms, and `attention`, a
whole attention layer after its product h W, which returns two outputs
(the layer output and the mean node score) from its one node.

The tape keeps only what backward reads. A node holds the keys of its
outputs, a name for each input and its backward closure, never an
output Tensor. Each output gets its own key, numbered per tape (so
`attention`'s two outputs have two); an input made on the same tape is
named by its key, a leaf (a requires_grad Tensor that no op of this tape
made, such as a parameter or an earlier tape's output) by its Tensor, and
a constant by None. So an output that no closure captured is freed as
soon as the caller drops it, while the tape is still recording.
`backward` removes each node from the tape as it runs it, which frees
the arrays only that node's closure held before the next node runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EngineError

Array = np.ndarray

_TLS = threading.local()

# Values smaller than this are compared absolutely in grad_check; below it
# relative error loses meaning against finite-difference noise.
_REL_FLOOR = 1e-2

_LOG_CLAMP = 1e-12


def _active_tape() -> "GradTape | None":
    return getattr(_TLS, "tape", None)


class Tensor:
    """A 2-D float64 matrix tracked by the engine.

    `tape_id` is the position of the producing op on the recording tape,
    None for leaves. `_key` names the Tensor among its tape's outputs.
    """

    __slots__ = ("values", "requires_grad", "tape_id", "_key", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise EngineError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.tape_id: int | None = None
        self._key: int | None = None
        self._tape: GradTape | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"


class GradTape:
    """Records ops for one forward pass. Context manager, one per thread."""

    def __init__(self):
        # per recorded op, in forward order: its output key (a tuple of keys
        # for several outputs), its input names and its backward closure
        self._nodes: list[tuple[int | tuple[int, ...], tuple, Callable]] = []
        self._keys = 0  # output keys handed out so far
        self._used = False

    def __enter__(self) -> "GradTape":
        if _active_tape() is not None:
            raise EngineError("a gradient tape is already active in this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False


def _record(out: Tensor | tuple[Tensor, ...], inputs: tuple, bwd: Callable):
    """Attach `out` to the active tape if any input needs a gradient.

    `out` may be a tuple of outputs that share one node and its `tape_id`;
    `bwd` then takes a tuple of their gradients, None for an output the
    loss does not reach. The node keeps each output's key, not the output.
    """
    tape = _active_tape()
    if tape is None:
        return
    for t in inputs:
        if type(t) is Tensor and t.requires_grad:
            break
    else:
        return
    names = tuple([None if type(t) is not Tensor or not t.requires_grad
                   else t._key if t._tape is tape else t for t in inputs])
    tape_id, key = len(tape._nodes), tape._keys
    for o in out if type(out) is tuple else (out,):
        o.requires_grad, o.tape_id, o._key, o._tape = True, tape_id, key, tape
        key += 1
    keys = tuple(range(tape._keys, key)) if type(out) is tuple else tape._keys
    tape._keys = key
    tape._nodes.append((keys, names, bwd))


def _values(x, allow_sparse: bool = False):
    if isinstance(x, Tensor):
        return x.values
    if sp.issparse(x):
        if not allow_sparse:
            raise EngineError("sparse constants are only supported as matmul operands")
        if x.dtype != np.float64:
            raise EngineError("sparse constants must be float64")
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return arr
    if arr.ndim != 2:
        raise EngineError(f"constants must be scalars or 2-D, got shape {arr.shape}")
    return arr


def _needs_grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Run reverse accumulation from a 1x1 loss back to the leaves.

    Returns a map from leaf Tensor to its gradient array. Leaves the loss
    does not depend on are simply absent; callers treat missing as zero.
    """
    if not isinstance(loss, Tensor):
        raise EngineError("backward expects a Tensor")
    if loss.shape != (1, 1):
        raise EngineError(f"backward needs a 1x1 loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise EngineError("loss is not attached to a tape; run the forward pass "
                          "inside `with GradTape():` and make sure it touches at "
                          "least one requires_grad tensor")
    if tape._used:
        raise EngineError("this tape has already been consumed by backward")
    tape._used = True

    grads: dict[int, Array] = {loss._key: np.ones((1, 1))}  # by output key
    leaf_grads: dict[Tensor, Array] = {}

    # Nodes were appended in forward order, so a single reverse sweep sees
    # every output before any of its producers. Accumulation order across
    # fan-out consumers is therefore fixed by tape order: deterministic.
    # Recorded outputs point back at the tape; taking its node list breaks
    # that cycle, so reference counting frees the step once callers let go.
    nodes, tape._nodes = tape._nodes, []
    while nodes:
        _run_node(nodes.pop(), grads, leaf_grads)
    return leaf_grads


def _run_node(node: tuple, grads: dict[int, Array], leaf_grads: dict[Tensor, Array]):
    """Pass the gradients of one popped node's outputs to its inputs. On
    return the node, its closure and the output gradients it consumed are
    dropped, before the sweep runs the next node."""
    keys, names, bwd = node
    if type(keys) is tuple:
        g = tuple(grads.pop(k, None) for k in keys)
        g = None if all(gi is None for gi in g) else g
    else:
        g = grads.pop(keys, None)
    if g is None:
        return  # not on any path to the loss
    for name, gi in zip(names, bwd(g)):
        if gi is None or name is None:
            continue
        acc = grads if type(name) is int else leaf_grads
        prev = acc.get(name)
        acc[name] = gi if prev is None else prev + gi


# ---------------------------------------------------------------------------
# pointwise ops


def _broadcast_bwd(x, g: Array) -> Array:
    # inputs are either full-shape or 1x1 scalars; collapse for the latter
    if isinstance(x, Tensor) and x.shape == (1, 1) and g.shape != (1, 1):
        return np.array([[g.sum()]])
    return g


def _check_pointwise_shapes(av, bv):
    sa = (1, 1) if np.ndim(av) == 0 else av.shape
    sb = (1, 1) if np.ndim(bv) == 0 else bv.shape
    if sa != sb and sa != (1, 1) and sb != (1, 1):
        raise EngineError(f"shape mismatch in pointwise op: {sa} vs {sb}")


def add(a, b) -> Tensor:
    av, bv = _values(a), _values(b)
    _check_pointwise_shapes(av, bv)
    out = Tensor(np.atleast_2d(av + bv))
    _record(out, (a, b), lambda g: (_broadcast_bwd(a, g), _broadcast_bwd(b, g)))
    return out


def mul(a, b) -> Tensor:
    av, bv = _values(a), _values(b)
    _check_pointwise_shapes(av, bv)
    out = Tensor(np.atleast_2d(av * bv))

    def bwd(g):
        return (_broadcast_bwd(a, g * bv), _broadcast_bwd(b, g * av))

    _record(out, (a, b), bwd)
    return out


def scale(x, c: float) -> Tensor:
    c = float(c)
    out = Tensor(_values(x) * c)
    _record(out, (x,), lambda g: (g * c,))
    return out


def _logistic(v: Array) -> Array:
    # stable: never exponentiates a large positive argument
    z = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x) -> Tensor:
    y = _logistic(_values(x))
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * y * (1.0 - y),))
    return out


def elu(x) -> Tensor:
    v = _values(x)
    # neg is 0 wherever v > 0, so the maximum and neg + 1 need no np.where
    neg = np.expm1(np.minimum(v, 0.0))
    out = Tensor(np.maximum(v, neg))
    _record(out, (x,), lambda g: (g * (neg + 1.0),))
    return out


# ---------------------------------------------------------------------------
# matmul and structural ops


def matmul(a, b) -> Tensor:
    """Matrix product. Either side may be a constant; a sparse constant on
    the left is the fast path for (features @ weight)."""
    av, bv = _values(a, allow_sparse=True), _values(b, allow_sparse=True)
    if np.ndim(av) != 2 or np.ndim(bv) != 2:
        raise EngineError("matmul needs 2-D operands")
    if av.shape[1] != bv.shape[0]:
        raise EngineError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    y = av @ bv
    out = Tensor(np.asarray(y))

    def bwd(g):
        ga = np.asarray(g @ bv.T) if _needs_grad(a) else None
        gb = np.asarray(av.T @ g) if _needs_grad(b) else None
        return (ga, gb)

    _record(out, (a, b), bwd)
    return out


def take_rows(x, rows) -> Tensor:
    """The rows of x at the index array `rows`, in that order."""
    v = _values(x)
    rows = np.asarray(rows, dtype=np.int64)
    out = Tensor(np.take(v, rows, axis=0))
    _record(out, (x,), lambda g: (_scatter_rows(g, rows, v.shape[0]),))
    return out


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x) -> Tensor:
    v = _values(x)
    out = Tensor([[v.sum()]])
    _record(out, (x,), lambda g: (np.full_like(v, g[0, 0]),))
    return out


def row_softmax(x) -> Tensor:
    v = _values(x)
    # the row max as a running maximum over the columns: exact, and on the
    # narrow rows of class probabilities far faster than v.max(axis=1),
    # which numpy runs as a per-row inner loop
    top = v[:, 0].copy()
    for k in range(1, v.shape[1]):
        np.maximum(top, v[:, k], out=top)
    z = np.exp(v - top[:, None])
    y = z / z.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    _record(out, (x,), bwd)
    return out


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: surviving entries are scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise EngineError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        out = Tensor(_values(x).copy())
        _record(out, (x,), lambda g: (g,))
        return out
    v = _values(x)
    # a boolean mask, not a float one, is what the backward keeps; masking
    # before the scale gives v * (mask / (1 - p)) bit for bit, overflow too
    keep = rng.random(v.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = Tensor((v * keep) * scale)
    _record(out, (x,), lambda g: ((g * keep) * scale,))
    return out


def cosine_similarity(u, v) -> Tensor:
    """Cosine of the angle between two column vectors, as a 1x1 tensor.

    Returns 0 when either vector has norm below 1e-12 (derivative 0 there).
    """
    uv, vv = _values(u), _values(v)
    if uv.shape != vv.shape or uv.shape[1] != 1:
        raise EngineError(f"cosine expects matching column vectors, got {uv.shape} and {vv.shape}")
    nu = float(np.sqrt((uv * uv).sum()))
    nv = float(np.sqrt((vv * vv).sum()))
    if nu < 1e-12 or nv < 1e-12:
        out = Tensor([[0.0]])
        zero = lambda g: (np.zeros_like(uv), np.zeros_like(vv))
        _record(out, (u, v), zero)
        return out
    dot = float((uv * vv).sum())
    c = dot / (nu * nv)
    out = Tensor([[c]])

    def bwd(g):
        s = g[0, 0]
        gu = s * (vv / (nu * nv) - c * uv / (nu * nu))
        gv = s * (uv / (nu * nv) - c * vv / (nv * nv))
        return (gu, gv)

    _record(out, (u, v), bwd)
    return out


# ---------------------------------------------------------------------------
# fused objective terms: one tape node each, forwards computed exactly as
# the elementwise chains they stand for


def _scatter_rows(g: Array, idx: Array, num_rows: int) -> Array:
    """out[i] = sum of g[j] over idx[j] == i, added in entry order as a
    sequential scatter-add would (one bincount per column)."""
    out = np.empty((num_rows, g.shape[1]))
    for k in range(g.shape[1]):
        out[:, k] = np.bincount(idx, g[:, k], num_rows)
    return out


def log_sum(x, rows: Array, cols: Array | None, factor: float) -> Tensor:
    """factor * sum of log(max(v, 1e-12)) over the entries x[rows[i], cols[i]],
    or over the whole rows x[rows] when cols is None, as a 1x1 tensor.

    Below the clamp the forward is constant, so the derivative there is 0.
    """
    v = _values(x)
    rows = np.asarray(rows, dtype=np.int64)
    if cols is None:
        picked = np.take(v, rows, axis=0)
    else:
        cols = np.asarray(cols, dtype=np.int64)
        picked = v[rows, cols][:, None]
    safe = np.maximum(picked, _LOG_CLAMP)
    factor = float(factor)
    out = Tensor(np.array([[np.log(safe).sum()]]) * factor)

    def bwd(g):
        gp = (g[0, 0] * factor) * (picked > _LOG_CLAMP) / safe
        if cols is None:
            return (_scatter_rows(gp, rows, v.shape[0]),)
        flat = rows * v.shape[1] + cols
        return (np.bincount(flat, gp[:, 0], v.size).reshape(v.shape),)

    _record(out, (x,), bwd)
    return out


def row_entropy(x) -> Tensor:
    """Per-row entropy -sum_j v_ij log(max(v_ij, 1e-12)), as an (n, 1) column."""
    v = _values(x)
    safe = np.maximum(v, _LOG_CLAMP)
    logv = np.log(safe)
    out = Tensor((v * logv).sum(axis=1, keepdims=True) * -1.0)

    def bwd(g):
        gb = np.broadcast_to(g * -1.0, v.shape)
        return (gb * logv + gb * v * (v > _LOG_CLAMP) / safe,)

    _record(out, (x,), bwd)
    return out


def standardize(x, var_floor: float) -> Tensor:
    """(v - mean) / population sigma over all entries of x. When the
    variance is at or below `var_floor`, the centred values pass unscaled."""
    v = _values(x)
    n = v.size
    centered = v - v.mean()
    var = (centered * centered).mean()
    if var <= var_floor:
        out = Tensor(centered)
        _record(out, (x,), lambda g: (g - g.sum() / n,))
        return out
    sd = np.sqrt(var)
    out = Tensor(centered / sd)

    def bwd(g):
        # through the quotient, the sqrt, the variance's mean and square,
        # then the centring
        g_var = (-g * centered / (sd * sd)).sum() * (0.5 / sd) / n
        gc = g / sd + g_var * centered + g_var * centered
        return (gc - gc.sum() / n,)

    _record(out, (x,), bwd)
    return out


def weighted_sum(base, terms: Sequence, weights: Sequence[float], factor: float) -> Tensor:
    """base + factor * (w_1 t_1 + ... + w_m t_m) over 1x1 tensors, the
    weighted terms added left to right; m >= 1."""
    weights = [float(w) for w in weights]
    factor = float(factor)
    acc = _values(terms[0]) * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        acc = acc + _values(t) * w
    out = Tensor(_values(base) + acc * factor)

    def bwd(g):
        g_terms = g * factor
        return (g,) + tuple(g_terms * w for w in weights)

    _record(out, (base, *terms), bwd)
    return out


# ---------------------------------------------------------------------------
# segment ops over ragged neighborhoods


@dataclass(frozen=True, eq=False)
class SegmentIndex:
    """The CSR pattern of message passing: entry k is a message from
    `sources[k]`, and group i, entries offsets[i]:offsets[i+1], holds the
    messages into node i.

    Every group is non-empty, as it holds the node's own self entry.
    `targets` and `self_pos` follow from the pattern and are derived on
    first use, as are the sparse matrices; all are kept with the index.
    `attention`, the one reader of `head_blocks`, writes its weights into
    their shared `data` buffer, so one index must not run attention in
    two threads at once. Indices compare and hash by identity, as those
    caches assume.
    """

    sources: Array
    offsets: Array
    _blocks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.sources, dtype=np.int64)
        off = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "sources", s)
        object.__setattr__(self, "offsets", off)
        if len(off) < 1 or off[0] != 0 or off[-1] != len(s):
            raise EngineError("segment offsets are inconsistent with the entry count")
        if np.any(np.diff(off) < 1):
            raise EngineError("every segment needs at least its self entry")

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_entries(self) -> int:
        return len(self.sources)

    @cached_property
    def targets(self) -> Array:
        return np.repeat(np.arange(self.num_nodes), np.diff(self.offsets))

    @cached_property
    def self_pos(self) -> Array:
        return np.flatnonzero(self.sources == self.targets)

    def select(self, keep: Array, nodes: Array | None = None) -> SegmentIndex:
        """The entries where the (E,) mask `keep` holds, in entry order, as
        an index. With `nodes` (sorted ids), only their groups, with sources
        renumbered to positions in `nodes`, which must hold them all."""
        if nodes is not None:
            keep = keep & np.isin(self.targets, nodes)
        # positions and take, not a boolean mask: a mask indexes far slower;
        # the entries kept before position j are the positions below j
        kept = np.flatnonzero(keep)
        sources = np.take(self.sources, kept)
        if nodes is None:
            return SegmentIndex(sources, np.searchsorted(kept, self.offsets))
        return SegmentIndex(np.searchsorted(nodes, sources),
                            np.append(0, np.searchsorted(kept, self.offsets[nodes + 1])))

    @cached_property
    def normalized(self) -> sp.csr_matrix:
        """D^-1/2 A D^-1/2 with A[t, s] counting entries and D the entries
        per group (self entries included): the GCN propagation matrix."""
        deg = np.diff(self.offsets).astype(np.float64)
        coef = 1.0 / np.sqrt(deg[self.targets] * deg[self.sources])
        return sp.csr_matrix((coef, self.sources, self.offsets),
                             shape=(self.num_nodes, self.num_nodes))

    def head_blocks(self, heads: int) -> tuple[sp.csr_matrix, sp.csc_matrix, Array]:
        """(A, A^T, take): the sparsity pattern of K = `heads` attention heads.

        A is (n*K, n*K). Row t*K + k holds head k's entries of group t, in
        entry order, at columns s*K + k, so for h of shape (n, K*d)
        `A @ h.reshape(n*K, d)` applies head k to column block k. A.data is
        filled as `weights.ravel()[take]` for (E, K) weights; A^T is a CSC
        view over the same `data`. The pattern follows from `offsets` by
        arithmetic alone and is built once per K.
        """
        cached = self._blocks.get(heads)
        if cached is not None:
            return cached
        n, K = self.num_nodes, heads
        deg = np.diff(self.offsets)
        row_len = np.repeat(deg, K)                     # row t*K + k has deg[t] entries
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        row_shift = np.repeat(np.repeat(self.offsets[:-1], K) - indptr[:-1], row_len)
        entry = np.arange(K * self.num_entries) + row_shift
        head = np.repeat(np.tile(np.arange(K), n), row_len)
        take = entry * K + head
        A = sp.csr_matrix((np.zeros(len(take)), self.sources[entry] * K + head, indptr),
                          shape=(n * K, n * K))
        cached = self._blocks[heads] = (A, A.T, take)
        return cached


def build_segment_index(src: Array, dst: Array, num_nodes: int) -> SegmentIndex:
    """Build the per-target grouping for message passing.

    `src`/`dst` list directed edges (messages flow src -> dst). A self
    entry is added for every node regardless of the edge list. Duplicate
    self loops in the input are dropped so the self entry stays unique.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    all_src = np.concatenate([src, np.arange(num_nodes, dtype=np.int64)])
    all_dst = np.concatenate([dst, np.arange(num_nodes, dtype=np.int64)])
    order = np.lexsort((all_src, all_dst))
    all_src = all_src[order]
    counts = np.bincount(all_dst, minlength=num_nodes)
    return SegmentIndex(all_src, np.concatenate([[0], np.cumsum(counts)]))


_LEAKY_SLOPE = 0.2

# bytes per gathered block of the attention backward's weight-gradient
# gather: each of its two (entries, K*d) float64 gathers stays this small
_SDDMM_BLOCK_BYTES = 1 << 19


def _add_into(acc: Array | None, x: Array) -> Array:
    """acc + x, added in place into acc; x itself when acc is None."""
    if acc is None:
        return x
    acc += x
    return acc


@lru_cache(maxsize=None)
def _head_average(heads: int, width: int) -> Array:
    """(heads*width, width) constant whose product with K side-by-side
    blocks of `width` columns is their mean; read-only, as it is shared."""
    avg = np.tile(np.eye(width), (heads, 1)) / heads
    avg.flags.writeable = False
    return avg


def attention(hw, attn, index: SegmentIndex, kind: str,
              average: bool = False) -> tuple[Tensor, Tensor | None]:
    """A multi-head attention layer over `index`, all K = attn.shape[1]
    heads at once, as one tape node: (output, mean score).

    hw: (num_nodes, K*d), head k owning column block k. Head k gives entry
    (t, s) of the index the logit
      kind "agree" (oodgat), attn (d, K): 1 - |w_k(t) - w_k(s)| with the
        node scores w_k = sigmoid(hw_k @ attn[:, k]);
      kind "leaky" (gat), attn (2d, K): LeakyReLU_0.2(hw_k(t) @ l_k +
        hw_k(s) @ r_k), l_k and r_k the halves of column k,
    softmaxes the logits within each target's group into the weights of
    the matrix A_k, and outputs A_k @ hw_k. "agree" shifts its logits by
    1, which is the self entry's logit and its group's maximum; "leaky"
    by the group maximum. The output keeps the heads side by side, or
    with `average` is their (num_nodes, d) mean. The mean score is the
    (num_nodes, 1) head mean of the node scores, None for "leaky".

    All heads run as one CSR product over (node, head) rows (see
    `SegmentIndex.head_blocks`). The backward is A_k^T @ g_k for hw and,
    per entry, g_k(t) . hw_k(s) (an SDDMM) for the weights; forward and
    backward each write their weights into the shared pattern right
    before its product, so calls that share an index never see each
    other's weights. Values and gradients are those of the chain of ops
    this one node stands for, bit for bit: a per-head projection, the
    sigmoid, the edge softmax, the product and the head means.
    """
    hv, av = _values(hw), _values(attn)
    if kind not in ("agree", "leaky"):
        raise EngineError(f"unknown attention kind {kind!r}")
    n, E, K = index.num_nodes, index.num_entries, av.shape[1]
    stacked = 1 if kind == "agree" else 2  # vectors per head in attn
    d = av.shape[0] // stacked
    if av.shape[0] != stacked * d or hv.shape != (n, K * d):
        raise EngineError(f"attention operands {hv.shape} and {av.shape} do not match "
                          f"the index and kind {kind!r}")
    targets, sources, starts = index.targets, index.sources, index.offsets[:-1]
    x3 = hv.reshape(n, K, d)
    # the rows of attn that each projection reads, in the chain's backward
    # order: for "leaky" the source half, then the target half
    parts = [slice(None)] if kind == "agree" else [slice(d, None), slice(0, d)]
    proj = [np.einsum("nkd,dk->nk", x3, av[rows]) for rows in parts]
    # np.take along axis 0 gathers rows far faster than fancy indexing
    if kind == "agree":
        w = _logistic(proj[0])
        diff = np.take(w, targets, axis=0) - np.take(w, sources, axis=0)
        z = np.exp((1.0 - np.abs(diff)) - 1.0)
    else:
        raw = np.take(proj[1], targets, axis=0) + np.take(proj[0], sources, axis=0)
        e = np.where(raw > 0, raw, _LEAKY_SLOPE * raw)
        z = np.exp(e - np.take(np.maximum.reduceat(e, starts, axis=0), targets, axis=0))
    alpha = z / np.take(np.add.reduceat(z, starts, axis=0), targets, axis=0)
    A, AT, take = index.head_blocks(K)
    flat = alpha.ravel()
    np.take(flat, take, out=A.data)
    y = (A @ hv.reshape(n * K, d)).reshape(n, K * d)
    out = Tensor(y @ _head_average(K, d) if average else y)
    score = None if kind == "leaky" else Tensor(w @ _head_average(K, 1))

    def bwd(grads):
        g, g_w = grads if kind == "agree" else (grads, None)
        g_hw = None
        if g_w is not None:  # the mean score's gradient, spread over the heads
            g_w = np.asarray(g_w @ _head_average(K, 1).T)
        if g is not None:
            if average:
                g = np.asarray(g @ _head_average(K, d).T)
            # all heads at once, a block of entries at a time: gathering
            # all E entries at once holds two (E, K*d) copies and raised
            # the peak memory
            block = max(1, _SDDMM_BLOCK_BYTES // (8 * max(K * d, 1)))
            g_alpha = np.empty((E, K))
            g3 = g.reshape(n, K, d)
            for start in range(0, E, block):
                stop = start + block
                np.einsum("ekd,ekd->ek", np.take(g3, targets[start:stop], axis=0),
                          np.take(x3, sources[start:stop], axis=0), out=g_alpha[start:stop])
            if _needs_grad(hw):
                np.take(flat, take, out=A.data)
                g_hw = (AT @ g.reshape(n * K, d)).reshape(n, K * d)
            inner = np.add.reduceat(g_alpha * alpha, starts, axis=0)
            g_logit = alpha * (g_alpha - np.take(inner, targets, axis=0))
            if kind == "agree":
                # sign(0) = 0: the subgradient that keeps untrained scorers inert
                g_t = -g_logit * np.sign(diff)
                g_s = -g_t
            else:
                g_t = g_s = g_logit * np.where(raw > 0, 1.0, _LEAKY_SLOPE)
            g_t, g_s = _scatter_rows(g_t, targets, n), _scatter_rows(g_s, sources, n)
            if kind == "agree":
                g_w = _add_into(_add_into(g_w, g_t), g_s)
        if kind == "agree":
            g_w *= w
            g_w *= 1.0 - w
        g_attn = np.zeros_like(av) if _needs_grad(attn) else None
        for rows, g_proj in zip(parts, [g_w] if kind == "agree" else [g_s, g_t]):
            if _needs_grad(hw):
                g_hw = _add_into(g_hw, (g_proj[:, :, None]
                                        * np.ascontiguousarray(av[rows].T)).reshape(hv.shape))
            if g_attn is not None:
                g_attn[rows] += np.einsum("nkd,nk->dk", x3, g_proj)
        return (g_hw, g_attn)

    _record(out if score is None else (out, score), (hw, attn), bwd)
    return out, score


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    passed: bool
    tol: float
    worst: float
    per_param: dict[str, float]


def grad_check(build_fn: Callable[[], Tensor], params: dict[str, Tensor],
               step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    `build_fn` must rebuild the scalar loss from the live `params` values
    and be deterministic; a repeated forward pass that is not bit-identical
    raises EngineError before any comparison happens. Relative error uses
    max(|analytic|, |numeric|, 0.01) as denominator so near-zero entries
    are judged on an absolute scale.
    """
    first = build_fn().values.copy()
    second = build_fn().values
    if not np.array_equal(first, second):
        raise EngineError("build_fn is nondeterministic: two forward passes disagree "
                          "bit for bit; fix the model (e.g. seed or disable dropout) "
                          "before checking gradients")

    with GradTape():
        loss = build_fn()
        grads = backward(loss)

    per_param: dict[str, float] = {}
    for name, p in params.items():
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.values)
        numeric = np.empty_like(p.values)
        flat = p.values.ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = build_fn().values[0, 0]
            flat[i] = orig - step
            down = build_fn().values[0, 0]
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
        per_param[name] = float((np.abs(analytic - numeric) / denom).max()) if flat.size else 0.0

    worst = max(per_param.values(), default=0.0)
    return GradCheckReport(passed=worst <= tol, tol=tol, worst=worst, per_param=per_param)
