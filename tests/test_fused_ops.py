"""The fused engine ops against the elementwise chains they replaced.

The chain ops below are the engine's former gather_rows, pick, sub,
absolute, leaky_relu, log, row_sum, reduce_mean, div, sqrt and
segment_softmax, kept here as the reference: same forward code, with
the scatters done by np.add.at. Each fused forward must equal its chain
bit for bit; the gradients may differ only by summation order.
"""

import numpy as np
import pytest

from oodgat import engine
from oodgat.engine import GradTape, Tensor, backward, build_segment_index
from oodgat.layers import drop_edge

_record, _values = engine._record, engine._values
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


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_edge_softmax_agree_equals_the_chain(heads):
    rng = np.random.default_rng(60 + heads)
    for index in random_indices(rng):
        n = index.num_nodes
        # sigmoid-range scores on a coarse grid: many exact ties
        for scores in (leaf(rng.random((n, heads))), leaf(rng.integers(0, 4, (n, heads)) / 4)):
            assert_fused_equals_chain(
                lambda: engine.edge_softmax(scores, scores, index, "agree"),
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
                lambda: engine.edge_softmax(lt, rt, index, "leaky"),
                lambda: chain_leaky(lt, rt, index),
                [lt, rt] if lt is not rt else [lt], (index.num_entries, heads), rng)


def test_edge_softmax_agree_with_two_score_matrices_equals_the_chain_closely():
    # the shift by 1 is not the group maximum here, so only the values
    # agree, to rounding
    rng = np.random.default_rng(80)
    for index in random_indices(rng):
        left, right = leaf(rng.random((index.num_nodes, 2))), leaf(rng.random((index.num_nodes, 2)))
        got = engine.edge_softmax(left, right, index, "agree").values
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
