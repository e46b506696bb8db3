"""Autodiff engine tests.

Expected gradients here come from two independent sources: hand-derived
closed forms frozen as literals, and central finite differences via
grad_check. The edge softmax is additionally checked against a plain-loop
reference, its scatters against np.add.at, spmm against a dense matrix
product (per head when it runs several heads), and the multi-head spmm
against single-head products bit for bit. tests/test_fused_ops.py holds
the elementwise chains the fused ops replaced.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from oodgat import engine
from oodgat.engine import (
    GradTape,
    SegmentIndex,
    Tensor,
    add,
    backward,
    build_segment_index,
    cosine_similarity,
    dropout,
    edge_softmax,
    elu,
    grad_check,
    log_sum,
    matmul,
    mul,
    reduce_sum,
    relu,
    row_entropy,
    row_softmax,
    scale,
    sigmoid,
    slice_rows,
    spmm,
    standardize,
    take_rows,
    weighted_sum,
)
from oodgat.errors import EngineError


def leaf(values):
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# tensor and tape basics


def test_tensor_rejects_non_2d():
    with pytest.raises(EngineError):
        Tensor([1.0, 2.0])
    with pytest.raises(EngineError):
        Tensor(np.zeros((2, 2, 2)))


def test_tensor_casts_to_float64():
    t = Tensor(np.array([[1, 2]], dtype=np.int32))
    assert t.values.dtype == np.float64


def test_backward_requires_scalar_loss():
    w = leaf(np.ones((2, 2)))
    with GradTape():
        y = mul(w, w)
        with pytest.raises(EngineError, match="1x1"):
            backward(y)


def test_backward_twice_on_same_tape_raises():
    w = leaf(np.ones((2, 2)))
    with GradTape():
        loss = reduce_sum(w)
        backward(loss)
        with pytest.raises(EngineError, match="consumed"):
            backward(loss)


def test_backward_frees_the_tape_without_the_cyclic_gc():
    w = leaf(np.ones((3, 2)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with GradTape():
            hidden = sigmoid(matmul(np.full((4, 3), 0.5), w))
            loss = reduce_sum(mul(hidden, hidden))
        ref = weakref.ref(hidden.values)
        grads = backward(loss)
        del hidden, loss
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert grads[w].shape == w.shape


def test_nested_tapes_raise():
    with GradTape():
        with pytest.raises(EngineError, match="already active"):
            with GradTape():
                pass


def test_backward_without_tape_raises():
    w = leaf(np.ones((2, 2)))
    loss = reduce_sum(w)  # no tape active: nothing recorded
    with pytest.raises(EngineError, match="not attached"):
        backward(loss)


def test_ops_outside_tape_do_not_track():
    w = leaf(np.ones((2, 2)))
    y = mul(w, w)
    assert y.requires_grad is False
    assert y.tape_id is None


# ---------------------------------------------------------------------------
# frozen closed-form gradients


def test_sum_of_leaf_gives_ones():
    w = leaf(np.arange(6, dtype=float).reshape(2, 3))
    with GradTape():
        grads = backward(reduce_sum(w))
    np.testing.assert_array_equal(grads[w], np.ones((2, 3)))


def test_quadratic_gives_two_w():
    rng = np.random.default_rng(0)
    w = leaf(rng.uniform(-1, 1, size=(3, 4)))
    with GradTape():
        grads = backward(reduce_sum(mul(w, w)))
    np.testing.assert_allclose(grads[w], 2.0 * w.values, rtol=0, atol=1e-12)


def test_independent_leaf_is_absent_from_grad_map():
    w = leaf(np.ones((2, 2)))
    v = leaf(np.ones((2, 2)))
    with GradTape():
        grads = backward(reduce_sum(v))
    assert w not in grads
    assert v in grads


def test_fanout_accumulates():
    x = leaf([[3.0]])
    with GradTape():
        grads = backward(reduce_sum(add(x, x)))
    np.testing.assert_array_equal(grads[x], [[2.0]])


def test_matmul_hand_derived():
    a = leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = leaf([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with GradTape():
        y = matmul(a, b)
        grads = backward(reduce_sum(y))
    np.testing.assert_array_equal(y.values, [[4.0, 5.0], [10.0, 11.0]])
    # d(sum)/dA_ij = sum_k B_jk, d(sum)/dB_jk = sum_i A_ij
    np.testing.assert_array_equal(grads[a], [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
    np.testing.assert_array_equal(grads[b], [[5.0, 5.0], [7.0, 7.0], [9.0, 9.0]])


def test_abs_subgradient_at_zero_is_zero():
    # the "agree" logit 1 - |w_t - w_s| takes sign(0) = 0: an entry with
    # tied scores passes no gradient, whatever the downstream weights
    idx = build_segment_index(np.array([0, 1]), np.array([1, 2]), 3)  # 0-1, 1-2
    weights = np.arange(idx.num_entries, dtype=float)[:, None]
    # all tied; then node 2 alone differs, so only node 0 (whose entries
    # are all tied) gets none
    for scores, nonzero in (([[0.4], [0.4], [0.4]], [False, False, False]),
                            ([[0.4], [0.4], [0.9]], [False, True, True])):
        x = leaf(scores)
        with GradTape():
            grads = backward(reduce_sum(mul(edge_softmax(x, x, idx, "agree"), weights)))
        np.testing.assert_array_equal(grads[x][:, 0] != 0.0, nonzero)


def test_log_clamps_small_arguments():
    x = leaf([[1e-20, 1.0]])
    y = log_sum(x, np.array([0]), None, 1.0)
    assert y.values[0, 0] == np.log(1e-12)
    with GradTape():
        grads = backward(log_sum(x, np.array([0, 0]), np.array([0, 1]), 1.0))
    # below the clamp the forward is constant, so the derivative is zero
    np.testing.assert_array_equal(grads[x][0, 0], 0.0)
    np.testing.assert_allclose(grads[x][0, 1], 1.0)


def test_scalar_broadcast_add_and_mul():
    x = leaf(np.ones((2, 3)))
    c = leaf([[2.0]])
    with GradTape():
        grads = backward(reduce_sum(mul(add(x, c), c)))
    # loss = sum((x + c) * c) = c*sum(x) + 6c^2
    np.testing.assert_allclose(grads[x], np.full((2, 3), 2.0))
    np.testing.assert_allclose(grads[c], [[6.0 + 24.0]])


def test_shape_mismatch_raises():
    with pytest.raises(EngineError, match="mismatch"):
        add(leaf(np.ones((2, 3))), leaf(np.ones((3, 2))))
    with pytest.raises(EngineError, match="mismatch"):
        matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))


def test_constant_inputs_get_no_gradient():
    w = leaf(np.ones((3, 2)))
    x = np.arange(6, dtype=float).reshape(2, 3)  # plain ndarray constant
    with GradTape():
        grads = backward(reduce_sum(matmul(x, w)))
    assert list(grads) == [w]
    np.testing.assert_array_equal(grads[w], x.sum(axis=0)[:, None] * np.ones((3, 2)))


# ---------------------------------------------------------------------------
# sparse constants


def test_sparse_left_matmul_matches_dense():
    rng = np.random.default_rng(1)
    dense = rng.random((6, 5)) * (rng.random((6, 5)) < 0.4)
    w = leaf(rng.standard_normal((5, 3)))
    with GradTape():
        g_dense = backward(reduce_sum(matmul(dense, w)))[w]
    w2 = leaf(w.values.copy())
    with GradTape():
        y = matmul(sp.csr_matrix(dense), w2)
        g_sparse = backward(reduce_sum(y))[w2]
    assert isinstance(y.values, np.ndarray)
    np.testing.assert_allclose(g_sparse, g_dense, rtol=0, atol=1e-14)


def test_sparse_rejected_outside_matmul():
    xs = sp.csr_matrix(np.eye(3))
    with pytest.raises(EngineError, match="matmul"):
        add(xs, leaf(np.eye(3)))


# ---------------------------------------------------------------------------
# segment ops


def loop_edge_softmax(left, right, index, kind):
    """One column of scores: the logit of each entry, then a max-shifted
    softmax over each target's group, all in plain loops."""
    logits = np.empty(index.num_entries)
    for k, (t, s) in enumerate(zip(index.targets, index.sources)):
        if kind == "agree":
            logits[k] = 1.0 - abs(left[t] - right[s])
        else:
            raw = left[t] + right[s]
            logits[k] = raw if raw > 0 else 0.2 * raw
    out = np.empty_like(logits)
    for i in range(index.num_nodes):
        lo, hi = index.offsets[i], index.offsets[i + 1]
        seg = logits[lo:hi]
        z = np.exp(seg - seg.max())
        out[lo:hi] = z / z.sum()
    return out


def dense_matrix(weights, index):
    A = np.zeros((index.num_nodes, index.num_nodes))
    for t, s, w in zip(index.targets, index.sources, weights[:, 0]):
        A[t, s] += w
    return A


def small_index():
    # edges 1->0, 2->0, 0->2 plus self entries for nodes 0..2
    return build_segment_index(np.array([1, 2, 0]), np.array([0, 0, 2]), 3)


def test_build_segment_index_layout():
    idx = small_index()
    assert idx.num_nodes == 3
    assert idx.num_entries == 6
    np.testing.assert_array_equal(idx.targets, [0, 0, 0, 1, 2, 2])
    np.testing.assert_array_equal(idx.sources, [0, 1, 2, 1, 0, 2])
    np.testing.assert_array_equal(idx.offsets, [0, 3, 4, 6])
    # one self entry per node, found where source == target
    np.testing.assert_array_equal(idx.sources[idx.self_pos], [0, 1, 2])


def test_build_segment_index_drops_duplicate_self_loops():
    idx = build_segment_index(np.array([0, 0, 1]), np.array([0, 0, 0]), 2)
    assert idx.num_entries == 3  # self 0, edge 1->0, self 1
    np.testing.assert_array_equal(idx.targets, [0, 0, 1])


def test_segment_index_validation():
    with pytest.raises(EngineError, match="self entry"):
        SegmentIndex(sources=np.array([0, 1]), offsets=np.array([0, 2, 2]))
    with pytest.raises(EngineError, match="offsets"):
        SegmentIndex(sources=np.array([0, 1]), offsets=np.array([0, 1]))


def test_select_keeps_entries_in_entry_order():
    idx = small_index()  # sources [0, 1, 2 | 1 | 0, 2], offsets [0, 3, 4, 6]
    kept = idx.select(np.array([True, False, True, True, False, True]))
    np.testing.assert_array_equal(kept.sources, [0, 2, 1, 2])
    np.testing.assert_array_equal(kept.offsets, [0, 2, 3, 4])
    np.testing.assert_array_equal(kept.targets, [0, 0, 1, 2])
    np.testing.assert_array_equal(kept.self_pos, [0, 2, 3])
    # only the groups of nodes 0 and 2, whose sources 0 and 2 become 0 and 1
    sub = idx.select(np.array([True, False, True, True, True, True]), np.array([0, 2]))
    np.testing.assert_array_equal(sub.sources, [0, 1, 0, 1])
    np.testing.assert_array_equal(sub.offsets, [0, 2, 4])
    np.testing.assert_array_equal(sub.targets, [0, 0, 1, 1])
    np.testing.assert_array_equal(sub.self_pos, [0, 3])


def test_segment_softmax_hand_example():
    idx = build_segment_index(np.array([1]), np.array([0]), 2)
    # group for node 0 has logits [0, 0] -> [0.5, 0.5]; node 1 alone -> [1]
    zeros = Tensor(np.zeros((2, 1)))
    y = edge_softmax(zeros, zeros, idx, "leaky")
    np.testing.assert_allclose(y.values[:, 0], [0.5, 0.5, 1.0])
    # scores 0.7 and 0.2: node 0's group has logits [1, 0.5]
    scores = Tensor([[0.7], [0.2]])
    y = edge_softmax(scores, scores, idx, "agree")
    np.testing.assert_allclose(y.values[:, 0], [1 / (1 + np.exp(-0.5)),
                                                1 / (1 + np.exp(0.5)), 1.0])


def test_segment_softmax_matches_loop_reference():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = rng.integers(2, 30)
        m = rng.integers(0, 4 * n)
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        idx = build_segment_index(src, dst, n)
        left, right = rng.standard_normal((n, 1)) * 5, rng.standard_normal((n, 1)) * 5
        for kind, r in (("agree", left), ("agree", right), ("leaky", right)):
            got = edge_softmax(Tensor(left), Tensor(r), idx, kind).values
            want = loop_edge_softmax(left[:, 0], r[:, 0], idx, kind)
            np.testing.assert_allclose(got[:, 0], want, atol=1e-12)
            sums = np.add.reduceat(got[:, 0], idx.offsets[:-1])
            np.testing.assert_allclose(sums, np.ones(n), atol=1e-12)


def test_segment_softmax_shift_invariance():
    idx = small_index()
    rng = np.random.default_rng(3)
    # positive scores: every leaky logit is the plain sum, so a shift of
    # one side shifts every logit alike
    left, right = rng.random((3, 1)) + 0.1, rng.random((3, 1)) + 0.1
    base = edge_softmax(Tensor(left), Tensor(right), idx, "leaky").values
    shifted = edge_softmax(Tensor(left + 500.0), Tensor(right), idx, "leaky").values
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    extreme = Tensor(left * 1e4)
    for r, kind in ((extreme, "agree"), (Tensor(-right * 1e4), "leaky")):
        assert np.all(np.isfinite(edge_softmax(extreme, r, idx, kind).values))


def test_edge_softmax_rejects_bad_operands():
    idx = small_index()
    with pytest.raises(EngineError, match="edge_softmax"):
        edge_softmax(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1))), idx, "leaky")
    with pytest.raises(EngineError, match="edge_softmax"):
        edge_softmax(Tensor(np.ones((4, 1))), Tensor(np.ones((4, 1))), idx, "agree")
    with pytest.raises(EngineError, match="kind"):
        edge_softmax(Tensor(np.ones((3, 1))), Tensor(np.ones((3, 1))), idx, "relu")


def test_segment_indices_compare_by_identity():
    src, dst = np.array([1, 2, 0]), np.array([0, 0, 2])
    a, b = build_segment_index(src, dst, 3), build_segment_index(src, dst, 3)
    assert a != b and a == a
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("src,dst,n", [
    (np.arange(20) % 8, (np.arange(20) * 3 + 1) % 8, 8),   # repeated pairs
    (np.array([], dtype=int), np.array([], dtype=int), 5),  # self entries only
    (np.array([0, 1, 1]), np.array([1, 0, 2]), 6),           # nodes 3..5 isolated
])
def test_spmm_matches_dense_product(src, dst, n):
    rng = np.random.default_rng(11)
    idx = build_segment_index(src, dst, n)
    wts = rng.standard_normal((idx.num_entries, 1))
    h = rng.standard_normal((n, 4))
    got = spmm(Tensor(wts), Tensor(h), idx).values
    np.testing.assert_allclose(got, dense_matrix(wts, idx) @ h, atol=1e-12)


def test_spmm_backward_matches_dense_product():
    rng = np.random.default_rng(12)
    idx = build_segment_index(rng.integers(0, 7, 15), rng.integers(0, 7, 15), 7)
    wts = leaf(rng.standard_normal((idx.num_entries, 1)))
    h = leaf(rng.standard_normal((7, 3)))
    g = rng.standard_normal((7, 3))
    with GradTape():
        grads = backward(reduce_sum(mul(spmm(wts, h, idx), g)))
    A = dense_matrix(wts.values, idx)
    np.testing.assert_allclose(grads[h], A.T @ g, atol=1e-12)
    dA = g @ h.values.T  # d loss / d A[t, s]
    np.testing.assert_allclose(grads[wts][:, 0], dA[idx.targets, idx.sources], atol=1e-12)


def dense_head_matrices(weights, index):
    return [dense_matrix(weights[:, k:k + 1], index) for k in range(weights.shape[1])]


def test_spmm_heads_sharing_an_index_keep_their_own_weights():
    # two products on one index (and two on one drop-edge index) are
    # recorded before a single backward; each must see its own weights
    # in the forward and again in the backward
    from oodgat.layers import drop_edge

    rng = np.random.default_rng(14)
    n, K, d = 9, 2, 3
    full = build_segment_index(rng.integers(0, n, 30), rng.integers(0, n, 30), n)
    dropped = drop_edge(full, 0.5, np.random.default_rng(3))
    products = []
    for idx in (full, full, dropped, dropped):
        products.append((idx, leaf(rng.standard_normal((idx.num_entries, K))),
                         leaf(rng.standard_normal((n, K * d))), rng.standard_normal((n, K * d))))
    with GradTape():
        outs = [spmm(w, h, idx) for idx, w, h, _ in products]
        loss = reduce_sum(mul(outs[0], products[0][3]))
        for out, (_, _, _, g) in zip(outs[1:], products[1:]):
            loss = add(loss, reduce_sum(mul(out, g)))
        grads = backward(loss)
    for out, (idx, w, h, g) in zip(outs, products):
        for k, A in enumerate(dense_head_matrices(w.values, idx)):
            cols = slice(k * d, (k + 1) * d)
            np.testing.assert_allclose(out.values[:, cols], A @ h.values[:, cols], atol=1e-12)
            np.testing.assert_allclose(grads[h][:, cols], A.T @ g[:, cols], atol=1e-12)
            dA = g[:, cols] @ h.values[:, cols].T
            np.testing.assert_allclose(grads[w][:, k], dA[idx.targets, idx.sources],
                                       atol=1e-12)


def test_spmm_heads_equal_single_head_products_bit_for_bit():
    rng = np.random.default_rng(15)
    for trial in range(30):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(0, 4 * n))
        idx = build_segment_index(rng.integers(0, n, m), rng.integers(0, n, m), n)
        K, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = leaf(rng.standard_normal((idx.num_entries, K)))
        h = leaf(rng.standard_normal((n, K * d)))
        g = rng.standard_normal((n, K * d))
        with GradTape():
            out = spmm(w, h, idx)
            grads = backward(reduce_sum(mul(out, g)))
        for k in range(K):
            cols = slice(k * d, (k + 1) * d)
            wk, hk = leaf(w.values[:, k:k + 1].copy()), leaf(h.values[:, cols].copy())
            with GradTape():
                out_k = spmm(wk, hk, idx)
                grads_k = backward(reduce_sum(mul(out_k, g[:, cols].copy())))
            assert np.array_equal(out.values[:, cols], out_k.values)
            assert np.array_equal(grads[w][:, k], grads_k[wk][:, 0])
            assert np.array_equal(grads[h][:, cols], grads_k[hk])


def test_head_blocks_are_built_once_and_share_data():
    idx = small_index()
    A, AT, take = idx.head_blocks(3)
    assert idx.head_blocks(3)[0] is A
    assert np.shares_memory(A.data, AT.data)
    assert A.shape == (9, 9) and len(take) == 3 * idx.num_entries


def test_segment_softmax_columns_are_independent():
    rng = np.random.default_rng(16)
    idx = build_segment_index(rng.integers(0, 7, 20), rng.integers(0, 7, 20), 7)
    left, right = rng.standard_normal((7, 3)) * 4, rng.standard_normal((7, 3)) * 4
    for kind in ("agree", "leaky"):
        got = edge_softmax(Tensor(left), Tensor(right), idx, kind).values
        for k in range(3):
            np.testing.assert_allclose(
                got[:, k], loop_edge_softmax(left[:, k], right[:, k], idx, kind), atol=1e-12)


def test_head_project_matches_loop():
    rng = np.random.default_rng(17)
    h = rng.standard_normal((6, 3 * 4))
    a = rng.standard_normal((4, 3))
    proj = engine.head_project(Tensor(h), Tensor(a)).values
    for k in range(3):
        np.testing.assert_allclose(proj[:, k], h[:, 4 * k:4 * (k + 1)] @ a[:, k], atol=1e-12)
    with pytest.raises(EngineError, match="head_project"):
        engine.head_project(Tensor(h), Tensor(np.ones((5, 3))))


def test_spmm_rejects_mismatched_operands():
    idx = small_index()
    with pytest.raises(EngineError, match="spmm"):
        spmm(Tensor(np.ones((5, 1))), Tensor(np.ones((3, 2))), idx)
    with pytest.raises(EngineError, match="spmm"):
        spmm(Tensor(np.ones((6, 1))), Tensor(np.ones((4, 2))), idx)


def test_edge_softmax_and_log_sum_scatters_match_add_at():
    # repeated (target, source) pairs and repeated rows and entries: each
    # backward scatter adds in entry order, as np.add.at does
    rng = np.random.default_rng(13)
    src, dst = np.array([1, 1, 2, 3, 3, 0, 4]), np.array([0, 0, 0, 2, 2, 4, 1])
    idx = build_segment_index(src, dst, 5)
    starts = idx.offsets[:-1]
    g = rng.standard_normal((idx.num_entries, 2))
    left, right = leaf(rng.standard_normal((5, 2))), leaf(rng.standard_normal((5, 2)))
    for kind in ("agree", "leaky"):
        with GradTape():
            y = edge_softmax(left, right, idx, kind)
            grads = backward(reduce_sum(mul(y, g)))
        g_logit = y.values * (g - np.add.reduceat(g * y.values, starts, axis=0)[idx.targets])
        lt, rs = left.values[idx.targets], right.values[idx.sources]
        if kind == "agree":
            g_left, g_right = -g_logit * np.sign(lt - rs), g_logit * np.sign(lt - rs)
        else:
            g_left = g_right = g_logit * np.where(lt + rs > 0, 1.0, 0.2)
        for x, by, gx in ((left, idx.targets, g_left), (right, idx.sources, g_right)):
            want = np.zeros((5, 2))
            np.add.at(want, by, gx)
            np.testing.assert_array_equal(grads[x], want)

    x = leaf(rng.uniform(0.5, 2.0, (5, 3)))
    rows = np.array([4, 0, 4, 4, 2, 0])
    cols = np.array([1, 2, 1, 0, 2, 2])
    with GradTape():
        grads = backward(log_sum(x, rows, None, -0.3))
    want = np.zeros((5, 3))
    np.add.at(want, rows, -0.3 / x.values[rows])
    np.testing.assert_array_equal(grads[x], want)
    with GradTape():
        grads = backward(log_sum(x, rows, cols, -0.3))
    want = np.zeros((5, 3))
    np.add.at(want, (rows, cols), -0.3 / x.values[rows, cols])
    np.testing.assert_array_equal(grads[x], want)


def test_gather_rows_scatter_add_backward():
    # log_sum over whole rows gathers x[rows]
    x = leaf(np.ones((4, 2)))
    with GradTape():
        grads = backward(log_sum(x, np.array([0, 2, 0]), None, 1.0))
    # row 0 taken twice, row 2 once, others never; d log(v) / dv = 1 at v = 1
    np.testing.assert_array_equal(grads[x], [[2, 2], [0, 0], [1, 1], [0, 0]])


def test_pick_entries_backward():
    # log_sum over entries picks x[rows[i], cols[i]]
    x = leaf(np.ones((3, 3)))
    with GradTape():
        grads = backward(log_sum(x, np.array([0, 0, 2]), np.array([1, 1, 2]), 1.0))
    want = np.zeros((3, 3))
    want[0, 1] = 2.0
    want[2, 2] = 1.0
    np.testing.assert_array_equal(grads[x], want)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_zero_rate_is_identity():
    x = leaf(np.ones((4, 4)))
    y = dropout(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(y.values, x.values)


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(5)
    x = leaf(np.ones((200, 50)))
    y = dropout(x, 0.4, rng)
    vals = np.unique(y.values)
    np.testing.assert_allclose(sorted(vals), [0.0, 1.0 / 0.6])
    # survival rate concentrates near 1 - p
    assert abs((y.values != 0).mean() - 0.6) < 0.02


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(9)
    x = leaf(np.ones((10, 10)))
    with GradTape():
        y = dropout(x, 0.5, rng)
        grads = backward(reduce_sum(y))
    np.testing.assert_array_equal(grads[x], y.values)


def extreme_values(rng, shape):
    """Values of every magnitude, with both zeros, NaN, both infinities and
    finite values whose scaled twin overflows."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, shape)
    v.ravel()[:8] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 5e-324]
    return v


@pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.5, 0.6, 0.9])
def test_dropout_with_a_boolean_mask_equals_the_float_mask(p):
    rng = np.random.default_rng(12)
    v, g = extreme_values(rng, (40, 30)), extreme_values(rng, (40, 30))
    reference = np.random.default_rng(8)
    keep = (reference.random(v.shape) >= p) / (1.0 - p)  # the float64 mask, as reference
    state = np.random.default_rng(8)
    x = leaf(v)
    with np.errstate(all="ignore"), GradTape():
        y = dropout(x, p, state)
        grads = backward(reduce_sum(mul(y, g)))
        assert y.values.tobytes() == (v * keep).tobytes()
        assert grads[x].tobytes() == (g * keep).tobytes()
    assert state.bit_generator.state == reference.bit_generator.state


def test_dropout_rejects_bad_rate():
    x = leaf(np.ones((2, 2)))
    with pytest.raises(EngineError):
        dropout(x, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_of_parallel_and_orthogonal():
    u = Tensor([[1.0], [0.0]])
    assert cosine_similarity(u, Tensor([[2.0], [0.0]])).values[0, 0] == pytest.approx(1.0)
    assert cosine_similarity(u, Tensor([[0.0], [3.0]])).values[0, 0] == pytest.approx(0.0)
    assert cosine_similarity(u, Tensor([[-1.0], [0.0]])).values[0, 0] == pytest.approx(-1.0)


def test_cosine_zero_vector_guard():
    u = leaf([[0.0], [0.0]])
    v = leaf([[1.0], [2.0]])
    with GradTape():
        c = cosine_similarity(u, v)
        grads = backward(reduce_sum(c))
    assert c.values[0, 0] == 0.0
    np.testing.assert_array_equal(grads[u], np.zeros((2, 1)))
    np.testing.assert_array_equal(grads[v], np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# finite-difference certification of every op


def check(build_fn, params, tol=1e-6):
    report = grad_check(build_fn, params, step=1e-5, tol=tol)
    assert report.passed, report.per_param
    return report


def test_gradcheck_smooth_pointwise_ops():
    rng = np.random.default_rng(42)
    x = leaf(rng.uniform(-2, 2, (3, 4)))
    y = leaf(rng.uniform(0.5, 2.0, (3, 4)))  # positive: safe for div/log/sqrt
    params = {"x": x, "y": y}

    check(lambda: reduce_sum(add(x, y)), params)
    check(lambda: reduce_sum(mul(x, y)), params)
    check(lambda: reduce_sum(scale(x, -1.7)), params)
    check(lambda: reduce_sum(sigmoid(x)), params)
    check(lambda: reduce_sum(row_softmax(x)), params)
    check(lambda: reduce_sum(mul(row_softmax(x), y)), params)
    check(lambda: log_sum(y, np.array([0, 2, 2]), np.array([1, 0, 3]), -0.5), params)
    check(lambda: log_sum(row_softmax(x), np.array([1, 2]), None, 0.3), params)
    check(lambda: reduce_sum(mul(row_entropy(row_softmax(x)), Tensor([[1.0], [-2.0], [0.5]]))),
          params)
    col = Tensor([[0.3], [-1.2], [2.0]])
    check(lambda: reduce_sum(mul(standardize(row_entropy(y), 1e-12), col)), params)
    check(lambda: reduce_sum(mul(standardize(row_entropy(y), 1e3), col)), params)
    check(lambda: weighted_sum(reduce_sum(x), [reduce_sum(mul(x, y)), reduce_sum(y)],
                               [0.7, -2.0], 0.4), params)


def pointwise_grid():
    """Signed zeros, infinities, NaN, subnormals, tiny negatives, values
    around the exp overflow and underflow limits, and a wide random spread."""
    rng = np.random.default_rng(47)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                        -1e-310, 1e-300, -1e-300, -1e-17, 1e-17, -745.2, -800.0,
                        709.8, 710.0, -36.8, 36.8])
    spread = rng.standard_normal(20000) * np.logspace(-320, 3, 20000)
    return np.concatenate([special, spread, -rng.random(5000) * 1e-8]).reshape(-1, 1)


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_elu_and_sigmoid_match_the_where_reference_bit_for_bit():
    v = pointwise_grid()
    g = np.random.default_rng(48).standard_normal(v.shape)
    neg = np.expm1(np.minimum(v, 0.0))
    sig = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                   np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    for op, want, want_grad in ((elu, np.where(v > 0, v, neg),
                                 g * np.where(v > 0, 1.0, neg + 1.0)),
                                (sigmoid, sig, g * sig * (1.0 - sig))):
        x = leaf(v.copy())
        with GradTape():
            out = op(x)
            grads = backward(reduce_sum(mul(out, g)))
        assert_same_bits(out.values, want)
        assert_same_bits(grads[x], want_grad)


@pytest.mark.parametrize("width", range(1, 13))
def test_row_softmax_running_max_equals_the_axis_max_bit_for_bit(width):
    rng = np.random.default_rng(60 + width)
    v = rng.standard_normal((12, width)) * 10.0 ** rng.integers(-3, 3, (12, width))
    v[0] = -0.0
    v[1] = np.where(np.arange(width) % 2, -0.0, 0.0)
    v[2] = -np.abs(v[2])
    v[2, -1] = -0.0
    v[3, width // 2] = np.inf
    v[4, 0] = -np.inf
    v[5] = -np.inf
    v[6] = np.inf
    v[7, -1] = np.nan
    v[8] = np.where(rng.random(width) < 0.5, -0.0, v[8])
    v[9] += 750.0
    with np.errstate(all="ignore"):
        z = np.exp(v - v.max(axis=1, keepdims=True))  # the axis-max formula, as reference
        want = z / z.sum(axis=1, keepdims=True)
        got = row_softmax(Tensor(v)).values
    assert got.tobytes() == want.tobytes()


def test_gradcheck_piecewise_ops_away_from_kinks():
    rng = np.random.default_rng(43)
    base = rng.uniform(0.2, 2.0, (3, 4)) * np.where(rng.random((3, 4)) < 0.5, -1, 1)
    x = leaf(base)
    params = {"x": x}
    check(lambda: reduce_sum(relu(x)), params, tol=1e-4)
    check(lambda: reduce_sum(elu(x)), params, tol=1e-4)


def test_gradcheck_matmul_chain():
    rng = np.random.default_rng(44)
    w1 = leaf(rng.standard_normal((5, 4)))
    w2 = leaf(rng.standard_normal((4, 2)))
    x = rng.standard_normal((6, 5))
    check(lambda: reduce_sum(matmul(matmul(x, w1), w2)), {"w1": w1, "w2": w2})


def test_gradcheck_structural_ops():
    rng = np.random.default_rng(45)
    x = leaf(rng.standard_normal((5, 3)))
    z = leaf(rng.standard_normal((5, 2)))
    params = {"x": x, "z": z}
    check(lambda: reduce_sum(slice_rows(x, 1, 4)), params)
    check(lambda: reduce_sum(mul(slice_rows(x, 1, 4), slice_rows(x, 0, 3))), params)
    # repeated rows add their gradients
    rows = np.array([4, 0, 4, 2])
    check(lambda: reduce_sum(mul(take_rows(x, rows), np.arange(12.0).reshape(4, 3))), params)
    check(lambda: cosine_similarity(matmul(x, np.array([[1.0], [0.0], [0.0]])),
                                    matmul(z, np.array([[0.0], [1.0]]))), params)


def test_gradcheck_segment_ops():
    rng = np.random.default_rng(46)
    idx = build_segment_index(rng.integers(0, 6, 12), rng.integers(0, 6, 12), 6)
    left = leaf(rng.standard_normal((6, 1)))
    vals = leaf(rng.standard_normal((6, 3)))
    wts = leaf(rng.uniform(0.1, 1.0, (idx.num_entries, 1)))
    right = leaf(rng.standard_normal((6, 1)))
    params = {"left": left, "right": right, "vals": vals, "wts": wts}

    mixer = rng.standard_normal((6, 3))  # weighs output rows unevenly
    entry_weights = Tensor(np.arange(idx.num_entries, dtype=float)[:, None])
    for kind in ("agree", "leaky"):
        check(lambda: reduce_sum(mul(edge_softmax(left, right, idx, kind), entry_weights)),
              params, tol=1e-4)
    check(lambda: reduce_sum(mul(edge_softmax(left, left, idx, "agree"), entry_weights)),
          params, tol=1e-4)
    check(lambda: reduce_sum(mul(spmm(wts, vals, idx), mixer)), params)
    check(lambda: reduce_sum(mul(spmm(edge_softmax(left, right, idx, "leaky"), vals, idx),
                                 mixer)), params, tol=1e-4)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_spmm_weight_gradient_matches_the_per_head_loop(heads):
    rng = np.random.default_rng(heads)
    n, d = 300, 3
    idx = build_segment_index(rng.integers(0, n, 2600), rng.integers(0, n, 2600), n)
    # more than one chunk of entries, the last one partial
    assert idx.num_entries > engine._SDDMM_CHUNK and idx.num_entries % engine._SDDMM_CHUNK
    w = leaf(rng.random((idx.num_entries, heads)))
    h = leaf(rng.standard_normal((n, heads * d)))
    g = rng.standard_normal((n, heads * d))
    with GradTape():
        grads = backward(reduce_sum(mul(spmm(w, h, idx), g)))
    expected = np.empty((idx.num_entries, heads))
    for k in range(heads):
        cols = slice(k * d, (k + 1) * d)
        expected[:, k] = np.einsum("ej,ej->e", np.take(g[:, cols], idx.targets, axis=0),
                                   np.take(h.values[:, cols], idx.sources, axis=0))
    assert np.array_equal(grads[w], expected)


def test_gradcheck_dropout_with_fixed_mask():
    x = leaf(np.random.default_rng(47).standard_normal((4, 4)))

    def build():
        # a fresh identically-seeded generator per call keeps the mask fixed
        return reduce_sum(mul(dropout(x, 0.5, np.random.default_rng(123)), x))

    check(build, {"x": x})


def test_gradcheck_detects_nondeterministic_forward():
    x = leaf(np.ones((3, 3)))
    state = np.random.default_rng(50)

    def build():
        return reduce_sum(dropout(x, 0.5, state))  # advances shared rng

    with pytest.raises(EngineError, match="nondeterministic"):
        grad_check(build, {"x": x})


def test_gradcheck_flags_corrupted_backward(monkeypatch):
    def bad_sigmoid(x):
        v = engine._values(x)
        y = 1.0 / (1.0 + np.exp(-v))
        out = Tensor(y)
        engine._record(out, (x,), lambda g: (g * y * (1.0 - y) * 1.05,))
        return out

    monkeypatch.setattr(engine, "sigmoid", bad_sigmoid)
    x = leaf(np.random.default_rng(48).standard_normal((3, 3)))
    report = grad_check(lambda: reduce_sum(engine.sigmoid(x)), {"x": x}, tol=1e-4)
    assert not report.passed


def test_gradcheck_reports_zero_grad_for_unused_param():
    x = leaf(np.ones((2, 2)))
    unused = leaf(np.full((2, 2), 3.0))
    report = grad_check(lambda: reduce_sum(mul(x, x)), {"x": x, "unused": unused})
    assert report.passed
    assert report.per_param["unused"] == 0.0


def test_repeated_forward_is_bit_identical():
    rng = np.random.default_rng(49)
    w = leaf(rng.standard_normal((8, 8)))
    x = rng.standard_normal((8, 8))

    def run():
        return reduce_sum(sigmoid(matmul(x, w))).values.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)
