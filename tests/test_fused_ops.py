"""The fused engine ops against the chains of ops they replaced.

The chain ops below are the engine's former gather_rows, pick, sub,
absolute, leaky_relu, log, row_sum, reduce_mean, div, sqrt and
segment_softmax, kept here as the reference: same forward code, with
the scatters done by np.add.at. Each fused forward must equal its chain
bit for bit; the gradients may differ only by summation order.

The attention op stands for a later chain, kept here too: the former
head_project, slice_rows, edge_softmax and spmm ops, the sigmoid and the
head-mean products. Its values and gradients equal that chain's bit for
bit, signed zeros included; the edge softmax of that chain is itself
checked against the elementwise chain above.
"""

import numpy as np
import pytest

from oodgat import engine
from oodgat.engine import GradTape, Tensor, backward, build_segment_index
from oodgat.layers import drop_edge

_record, _values, _needs_grad = engine._record, engine._values, engine._needs_grad
_scatter_rows, _head_average = engine._scatter_rows, engine._head_average
_CLAMP = 1e-12


def leaf(values):
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# the reference chain


def gather_rows(x, idx):
    v = _values(x)
    out = Tensor(v[idx])

    def bwd(g):
        gx = np.zeros_like(v)
        np.add.at(gx, idx, g)
        return (gx,)

    _record(out, (x,), bwd)
    return out


def pick(x, rows, cols):
    v = _values(x)
    out = Tensor(v[rows, cols][:, None])

    def bwd(g):
        gx = np.zeros_like(v)
        np.add.at(gx, (rows, cols), g[:, 0])
        return (gx,)

    _record(out, (x,), bwd)
    return out


def sub(a, b):
    av, bv = _values(a), _values(b)
    out = Tensor(np.atleast_2d(av - bv))
    _record(out, (a, b), lambda g: (engine._broadcast_bwd(a, g), engine._broadcast_bwd(b, -g)))
    return out


def div(a, b):
    av, bv = _values(a), _values(b)
    out = Tensor(np.atleast_2d(av / bv))
    _record(out, (a, b), lambda g: (engine._broadcast_bwd(a, g / bv),
                                    engine._broadcast_bwd(b, -g * av / (bv * bv))))
    return out


def absolute(x):
    v = _values(x)
    out = Tensor(np.abs(v))
    _record(out, (x,), lambda g: (g * np.sign(v),))
    return out


def leaky_relu(x):
    v = _values(x)
    out = Tensor(np.where(v > 0, v, 0.2 * v))
    _record(out, (x,), lambda g: (g * np.where(v > 0, 1.0, 0.2),))
    return out


def log(x):
    v = _values(x)
    safe = np.maximum(v, _CLAMP)
    out = Tensor(np.log(safe))
    _record(out, (x,), lambda g: (g * (v > _CLAMP) / safe,))
    return out


def sqrt(x):
    v = _values(x)
    y = np.sqrt(v)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * np.where(v > 0, 0.5 / np.where(y > 0, y, 1.0), 0.0),))
    return out


def row_sum(x):
    v = _values(x)
    out = Tensor(v.sum(axis=1, keepdims=True))
    _record(out, (x,), lambda g: (np.broadcast_to(g, v.shape).copy(),))
    return out


def reduce_mean(x):
    v = _values(x)
    out = Tensor([[v.mean()]])
    _record(out, (x,), lambda g: (np.full_like(v, g[0, 0] / v.size),))
    return out


def segment_softmax(logits, index):
    v = _values(logits)
    starts = index.offsets[:-1]
    gmax = np.maximum.reduceat(v, starts, axis=0)
    z = np.exp(v - gmax[index.targets])
    y = z / np.add.reduceat(z, starts, axis=0)[index.targets]
    out = Tensor(y)

    def bwd(g):
        inner = np.add.reduceat(g * y, starts, axis=0)
        return (y * (g - inner[index.targets]),)

    _record(out, (logits,), bwd)
    return out


def chain_agree(left, right, index):
    w_t, w_s = gather_rows(left, index.targets), gather_rows(right, index.sources)
    return segment_softmax(sub(1.0, absolute(sub(w_t, w_s))), index)


def chain_leaky(left, right, index):
    return segment_softmax(leaky_relu(engine.add(gather_rows(left, index.targets),
                                                 gather_rows(right, index.sources))), index)


def chain_standardize(x, var_floor):
    mu = reduce_mean(x)
    centered = sub(x, mu)
    var = reduce_mean(engine.mul(centered, centered))
    if var.values[0, 0] <= var_floor:
        return centered
    return div(centered, sqrt(var))


# the attention chain: the engine's former head_project, slice_rows,
# edge_softmax and spmm, as they were

def slice_rows(x, start, stop):
    v = _values(x)
    out = Tensor(v[start:stop].copy())

    def bwd(g):
        gx = np.zeros_like(v)
        gx[start:stop] = g
        return (gx,)

    _record(out, (x,), bwd)
    return out


def head_project(x, a):
    xv, av = _values(x), _values(a)
    d, K = av.shape
    x3 = xv.reshape(len(xv), K, d)
    out = Tensor(np.einsum("nkd,dk->nk", x3, av))

    def bwd(g):
        gx = (g[:, :, None] * av.T).reshape(xv.shape) if _needs_grad(x) else None
        ga = np.einsum("nkd,nk->dk", x3, g) if _needs_grad(a) else None
        return (gx, ga)

    _record(out, (x, a), bwd)
    return out


def edge_softmax(left, right, index, kind):
    lv, rv = _values(left), _values(right)
    n = index.num_nodes
    targets, sources = index.targets, index.sources
    starts = index.offsets[:-1]
    lt, rs = np.take(lv, targets, axis=0), np.take(rv, sources, axis=0)
    if kind == "agree":
        diff = lt - rs
        z = np.exp((1.0 - np.abs(diff)) - 1.0)
    else:
        raw = lt + rs
        e = np.where(raw > 0, raw, 0.2 * raw)
        z = np.exp(e - np.take(np.maximum.reduceat(e, starts, axis=0), targets, axis=0))
    y = z / np.take(np.add.reduceat(z, starts, axis=0), targets, axis=0)
    out = Tensor(y)

    def bwd(g):
        inner = np.add.reduceat(g * y, starts, axis=0)
        g_logit = y * (g - np.take(inner, targets, axis=0))
        if kind == "agree":
            g_left = -g_logit * np.sign(diff)
            g_right = -g_left
        else:
            g_left = g_right = g_logit * np.where(raw > 0, 1.0, 0.2)
        return (_scatter_rows(g_left, targets, n) if _needs_grad(left) else None,
                _scatter_rows(g_right, sources, n) if _needs_grad(right) else None)

    _record(out, (left, right), bwd)
    return out


def spmm(weights, h, index):
    wv, hv = _values(weights), _values(h)
    n, E = index.num_nodes, index.num_entries
    K = wv.shape[1]
    d = hv.shape[1] // K
    A, AT, take = index.head_blocks(K)
    flat_w = wv.ravel()
    np.take(flat_w, take, out=A.data)
    out = Tensor((A @ hv.reshape(n * K, d)).reshape(n, K * d))

    def bwd(g):
        gw = gh = None
        if _needs_grad(weights):
            gw = np.empty((E, K))
            g3, h3 = g.reshape(n, K, d), hv.reshape(n, K, d)
            for start in range(0, E, 512):
                stop = start + 512
                np.einsum("ekd,ekd->ek", np.take(g3, index.targets[start:stop], axis=0),
                          np.take(h3, index.sources[start:stop], axis=0),
                          out=gw[start:stop])
        if _needs_grad(h):
            np.take(flat_w, take, out=A.data)
            gh = (AT @ g.reshape(n * K, d)).reshape(n, K * d)
        return (gw, gh)

    _record(out, (weights, h), bwd)
    return out


def chain_attention(hw, attn, index, kind, average):
    """The former oodgat and gat layer after its product h W."""
    heads = attn.shape[1]
    if kind == "agree":
        scores = engine.sigmoid(head_project(hw, attn))
        alpha = edge_softmax(scores, scores, index, "agree")
    else:
        d = attn.shape[0] // 2
        s_t = head_project(hw, slice_rows(attn, 0, d))
        s_s = head_project(hw, slice_rows(attn, d, 2 * d))
        alpha, scores = edge_softmax(s_t, s_s, index, "leaky"), None
    out = spmm(alpha, hw, index)
    mean_score = None if scores is None else engine.matmul(scores, _head_average(heads, 1))
    if average:
        out = engine.matmul(out, _head_average(heads, out.shape[1] // heads))
    return out, mean_score


# ---------------------------------------------------------------------------
# comparison helpers


def run(build, leaves, out_weights):
    """Forward value and the leaves' gradients of sum(build() * out_weights)."""
    with GradTape():
        out = build()
        grads = backward(engine.reduce_sum(engine.mul(out, out_weights)))
    return out.values, [grads.get(t, np.zeros_like(t.values)) for t in leaves]


def assert_fused_equals_chain(fused, chain, leaves, out_shape, rng):
    weights = rng.standard_normal(out_shape)
    got, got_grads = run(fused, leaves, weights)
    want, want_grads = run(chain, leaves, weights)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)


def random_indices(rng):
    """Random graphs with isolated nodes, with and without drop-edge."""
    for trial in range(12):
        n = int(rng.integers(1, 16))
        linked = max(n - int(rng.integers(0, 3)), 1)  # nodes past `linked` are isolated
        m = int(rng.integers(0, 4 * n))
        index = build_segment_index(rng.integers(0, linked, m), rng.integers(0, linked, m), n)
        yield index
        yield drop_edge(index, 0.5, rng)


# ---------------------------------------------------------------------------
# the fused ops

# the reference edge softmax, the attention chain's middle op, against the
# elementwise chain before it


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_edge_softmax_agree_equals_the_chain(heads):
    rng = np.random.default_rng(60 + heads)
    for index in random_indices(rng):
        n = index.num_nodes
        # sigmoid-range scores on a coarse grid: many exact ties
        for scores in (leaf(rng.random((n, heads))), leaf(rng.integers(0, 4, (n, heads)) / 4)):
            assert_fused_equals_chain(
                lambda: edge_softmax(scores, scores, index, "agree"),
                lambda: chain_agree(scores, scores, index),
                [scores], (index.num_entries, heads), rng)


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_edge_softmax_leaky_equals_the_chain(heads):
    rng = np.random.default_rng(70 + heads)
    for index in random_indices(rng):
        n = index.num_nodes
        left, right = leaf(rng.standard_normal((n, heads))), leaf(rng.standard_normal((n, heads)))
        tied = leaf(rng.integers(-2, 3, (n, heads)) / 2)
        for lt, rt in ((left, right), (tied, tied)):
            assert_fused_equals_chain(
                lambda: edge_softmax(lt, rt, index, "leaky"),
                lambda: chain_leaky(lt, rt, index),
                [lt, rt] if lt is not rt else [lt], (index.num_entries, heads), rng)


def test_edge_softmax_agree_with_two_score_matrices_equals_the_chain_closely():
    # the shift by 1 is not the group maximum here, so only the values
    # agree, to rounding
    rng = np.random.default_rng(80)
    for index in random_indices(rng):
        left, right = leaf(rng.random((index.num_nodes, 2))), leaf(rng.random((index.num_nodes, 2)))
        got = edge_softmax(left, right, index, "agree").values
        np.testing.assert_allclose(got, chain_agree(left, right, index).values,
                                   rtol=1e-12, atol=1e-15)


def test_log_sum_equals_the_chain():
    rng = np.random.default_rng(81)
    for trial in range(20):
        n, C = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        # probabilities with exact zeros, below the log clamp
        z = leaf(rng.random((n, C)) * (rng.random((n, C)) < 0.8))
        rows = rng.integers(0, n, int(rng.integers(1, 2 * n + 1)))
        cols = rng.integers(0, C, len(rows))
        unique_rows = np.unique(rows)
        c = -1.0 / len(rows)
        assert_fused_equals_chain(
            lambda: engine.log_sum(z, rows, cols, c),
            lambda: engine.scale(engine.reduce_sum(log(pick(z, rows, cols))), c),
            [z], (1, 1), rng)
        assert_fused_equals_chain(
            lambda: engine.log_sum(z, unique_rows, None, c / C),
            lambda: engine.scale(engine.reduce_sum(log(gather_rows(z, unique_rows))), c / C),
            [z], (1, 1), rng)


def test_row_entropy_equals_the_chain():
    rng = np.random.default_rng(82)
    for trial in range(20):
        n, C = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        z = leaf(rng.random((n, C)) * (rng.random((n, C)) < 0.8))
        assert_fused_equals_chain(
            lambda: engine.row_entropy(z),
            lambda: engine.scale(row_sum(engine.mul(z, log(z))), -1.0),
            [z], (n, 1), rng)


def test_standardize_equals_the_chain_on_both_branches():
    rng = np.random.default_rng(83)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        columns = [leaf(rng.standard_normal((n, 1)) * 3), leaf(np.full((n, 1), 0.7)),
                   leaf(0.7 + rng.standard_normal((n, 1)) * 1e-7)]  # var near 1e-14: floored
        for x in columns:
            assert_fused_equals_chain(
                lambda: engine.standardize(x, 1e-12),
                lambda: chain_standardize(x, 1e-12),
                [x], (n, 1), rng)


def test_weighted_sum_equals_the_chain():
    rng = np.random.default_rng(84)
    for m in (1, 2, 3):
        base = leaf(rng.standard_normal((1, 1)))
        terms = [leaf(rng.standard_normal((1, 1))) for _ in range(m)]
        weights = list(rng.random(m))
        factor = float(rng.random())

        def chain():
            reg = engine.scale(terms[0], weights[0])
            for t, w in zip(terms[1:], weights[1:]):
                reg = engine.add(reg, engine.scale(t, w))
            return engine.add(base, engine.scale(reg, factor))

        assert_fused_equals_chain(lambda: engine.weighted_sum(base, terms, weights, factor),
                                  chain, [base] + terms, (1, 1), rng)


# ---------------------------------------------------------------------------
# the attention op against the attention chain


def same_bits(got, want):
    """Equal arrays, signed zeros and NaN payloads included, or both None."""
    if got is None or want is None:
        return got is want
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def attention_values(build, hw, attn, out_weights, score_weights):
    """The output, the mean score and the gradients of hw and attn (None
    when not leaves) of sum(out * out_weights) + sum(score * score_weights),
    a term left out where its weights are None."""
    with GradTape():
        out, score = build()
        terms = []
        if out_weights is not None:
            terms.append(engine.reduce_sum(engine.mul(out, out_weights)))
        if score_weights is not None:
            terms.append(engine.reduce_sum(engine.mul(score, score_weights)))
        grads = backward(terms[0] if len(terms) == 1 else engine.add(*terms))
    return [out.values, None if score is None else score.values,
            grads.get(hw), grads.get(attn)]


def assert_attention_equals_the_chain(hw, attn, index, kind, average, rng):
    n, K = index.num_nodes, attn.shape[1]
    out_cols = hw.shape[1] // K if average else hw.shape[1]
    out_weights = rng.standard_normal((n, out_cols))
    score_weights = rng.standard_normal((n, 1))
    # through the output only, the mean score only (agree), and both
    modes = [(out_weights, None)]
    if kind == "agree":
        modes += [(None, score_weights), (out_weights, score_weights)]
    for weights in modes:
        got = attention_values(lambda: engine.attention(hw, attn, index, kind, average),
                               hw, attn, *weights)
        want = attention_values(lambda: chain_attention(hw, attn, index, kind, average),
                                hw, attn, *weights)
        for g, w in zip(got, want):
            assert same_bits(g, w)


def attention_operands(rng, n, K, d, kind):
    """(hw, attn) draws: random, then on a coarse grid, where projections,
    scores and logits tie, then (agree) the zero scorer that starts
    training, where every score is 0.5."""
    rows = d if kind == "agree" else 2 * d
    yield rng.standard_normal((n, K * d)), rng.standard_normal((rows, K))
    yield rng.integers(-2, 3, (n, K * d)) / 2, rng.integers(-2, 3, (rows, K)) / 4
    if kind == "agree":
        yield rng.standard_normal((n, K * d)), np.zeros((rows, K))


@pytest.mark.parametrize("average", [False, True])
@pytest.mark.parametrize("kind", ["agree", "leaky"])
@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_attention_equals_the_chain(heads, kind, average):
    rng = np.random.default_rng(100 + 10 * heads + 2 * (kind == "leaky") + average)
    for index in random_indices(rng):
        d = int(rng.integers(1, 4))
        for hv, av in attention_operands(rng, index.num_nodes, heads, d, kind):
            # both operands leaves, then each one a constant
            for hw, attn in ((leaf(hv), leaf(av)), (Tensor(hv), leaf(av)),
                             (leaf(hv), Tensor(av))):
                assert_attention_equals_the_chain(hw, attn, index, kind, average, rng)


@pytest.mark.parametrize("kind", ["agree", "leaky"])
@pytest.mark.parametrize("heads", [1, 3])
def test_attention_across_sddmm_chunks_equals_the_chain(heads, kind, monkeypatch):
    rng = np.random.default_rng(120 + heads)
    n, d = 300, 3
    index = build_segment_index(rng.integers(0, n, 2600), rng.integers(0, n, 2600), n)
    # blocks of 512 entries: more than one, the last one partial
    monkeypatch.setattr(engine, "_SDDMM_BLOCK_BYTES", 512 * 8 * heads * d)
    assert index.num_entries > 512 and index.num_entries % 512
    for hv, av in attention_operands(rng, n, heads, d, kind):
        for average in (False, True):
            assert_attention_equals_the_chain(leaf(hv), leaf(av), index, kind, average, rng)


@pytest.mark.parametrize("kind", ["agree", "leaky"])
def test_attention_calls_sharing_an_index_equal_the_chain(kind):
    # two calls on one index and two on one drop-edge index, all recorded
    # before one backward that runs them in reverse: each call writes its
    # weights into the shared pattern before its products, as the chain's
    # spmm does
    rng = np.random.default_rng(130)
    n, K, d = 9, 2, 3
    full = build_segment_index(rng.integers(0, n, 30), rng.integers(0, n, 30), n)
    dropped = drop_edge(full, 0.5, np.random.default_rng(3))
    rows = d if kind == "agree" else 2 * d
    calls = [(idx, leaf(rng.standard_normal((n, K * d))), leaf(rng.standard_normal((rows, K))))
             for idx in (full, dropped, full, dropped)]
    out_weights = [rng.standard_normal((n, K * d)) for _ in calls]

    def run_all(op):
        with GradTape():
            loss = None
            outs = []
            for (idx, hw, attn), g in zip(calls, out_weights):
                out, score = op(hw, attn, idx, kind, False)
                term = engine.reduce_sum(engine.mul(out, g))
                if score is not None:
                    term = engine.add(term, engine.reduce_sum(score))
                loss = term if loss is None else engine.add(loss, term)
                outs.append(out.values)
            grads = backward(loss)
        return outs + [grads[t] for _, hw, attn in calls for t in (hw, attn)]

    for got, want in zip(run_all(engine.attention), run_all(chain_attention)):
        assert same_bits(got, want)


def test_attention_records_one_tape_node():
    rng = np.random.default_rng(140)
    index = build_segment_index(rng.integers(0, 6, 10), rng.integers(0, 6, 10), 6)
    hw = leaf(rng.standard_normal((6, 4)))
    for kind, rows in (("agree", 2), ("leaky", 4)):
        with GradTape():
            out, score = engine.attention(hw, leaf(rng.standard_normal((rows, 2))), index, kind)
        assert out.tape_id == 0
        assert score is None if kind == "leaky" else score.tape_id == 0
