"""Autodiff engine tests.

Expected gradients here come from two independent sources: hand-derived
closed forms frozen as literals, and central finite differences via
grad_check. The attention op is additionally checked against a
plain-loop softmax and a dense matrix product, its backward against a
dense derivation and its scatters against np.add.at, and its heads
against single-head calls. tests/test_fused_ops.py holds the chains of
ops the fused ops replaced.
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
    attention,
    backward,
    build_segment_index,
    cosine_similarity,
    dropout,
    elu,
    grad_check,
    log_sum,
    matmul,
    mul,
    reduce_sum,
    row_entropy,
    row_softmax,
    scale,
    sigmoid,
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


def test_dropped_outputs_are_freed_while_the_tape_records():
    # a hidden layer of a training forward: attention, elu, dropout. No
    # backward closure reads the attention or the elu output, so once the
    # caller drops them the live tape must not keep their values
    rng = np.random.default_rng(31)
    n, K, d = 12, 2, 3
    idx = build_segment_index(rng.integers(0, n, 30), rng.integers(0, n, 30), n)
    W, a = leaf(rng.standard_normal((5, K * d))), leaf(rng.standard_normal((d, K)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with GradTape():
            out, score = attention(matmul(rng.standard_normal((n, 5)), W), a, idx, "agree")
            hidden = elu(out)
            dropped = dropout(hidden, 0.5, rng)
            refs = [weakref.ref(out.values), weakref.ref(hidden.values)]  # Tensor has no weakref
            del out, hidden
            assert [ref() is None for ref in refs] == [True, True]
            grads = backward(add(reduce_sum(dropped), reduce_sum(score)))
    finally:
        if was_enabled:
            gc.enable()
    assert list(grads) == [a, W]


def _held_by_a_closure():
    held = np.full((2, 2), 3.0)
    return held, lambda g: (g * held,)


def test_backward_frees_each_node_before_the_next_runs():
    # the later node's closure holds the only reference to `held`: both
    # must be gone by the time the sweep runs the earlier node
    x = leaf(np.ones((2, 2)))
    seen = []

    def first_bwd(g):
        seen.extend(ref() is None for ref in refs)
        return (g * 2.0,)

    held, second_bwd = _held_by_a_closure()
    with GradTape():
        first = Tensor(x.values * 2.0)
        engine._record(first, (x,), first_bwd)
        second = Tensor(first.values * held)
        engine._record(second, (first,), second_bwd)
        loss = reduce_sum(second)
    refs = [weakref.ref(held), weakref.ref(second_bwd)]
    del held, second_bwd
    grads = backward(loss)
    assert seen == [True, True]
    np.testing.assert_array_equal(grads[x], np.full((2, 2), 6.0))


def test_an_earlier_tapes_output_is_a_leaf_of_a_later_tape():
    w = leaf([[2.0]])
    with GradTape():
        y = mul(w, w)
    with GradTape():
        # the later tape's first output shares y's key on its own tape
        loss = reduce_sum(mul(y, y))
        grads = backward(loss)
    assert list(grads) == [y]
    np.testing.assert_array_equal(grads[y], [[8.0]])


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
    weights = np.arange(9.0).reshape(3, 3)  # over identity features: one per (t, s)
    # all tied; then node 2 alone differs, so only node 0 (whose entries
    # are all tied) gets none
    for scores, nonzero in (([[0.4], [0.4], [0.4]], [False, False, False]),
                            ([[0.4], [0.4], [0.9]], [False, True, True])):
        a = leaf(logit(np.array(scores)))
        with GradTape():
            out, _ = attention(Tensor(np.eye(3)), a, idx, "agree")
            grads = backward(reduce_sum(mul(out, weights)))
        np.testing.assert_array_equal(grads[a][:, 0] != 0.0, nonzero)


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


def logit(p):
    return np.log(p) - np.log1p(-p)


def head_scores(hk, column, kind):
    """One head's per-node (left, right) scores for the loop softmax, from
    its feature block and its column of attn."""
    if kind == "agree":
        w = 1.0 / (1.0 + np.exp(-(hk @ column)))
        return w, w
    d = hk.shape[1]
    return hk @ column[:d], hk @ column[d:]


def attention_matrices(attn, index, kind):
    """Each head's dense attention matrix, read off the op's output over
    identity features: there head k's block A_k @ I is A_k, and its
    projections are column k of attn, so that column holds the node
    scores' logits ("agree") or the target and then the source scores
    ("leaky")."""
    n, K = index.num_nodes, attn.shape[1]
    out, _ = attention(Tensor(np.tile(np.eye(n), K)), Tensor(attn), index, kind)
    return [out.values[:, k * n:(k + 1) * n] for k in range(K)]


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


def test_attention_hand_example():
    idx = build_segment_index(np.array([1]), np.array([0]), 2)
    # group for node 0 has logits [0, 0] -> [0.5, 0.5]; node 1 alone -> [1]
    [A] = attention_matrices(np.zeros((4, 1)), idx, "leaky")
    np.testing.assert_allclose(A, [[0.5, 0.5], [0.0, 1.0]])
    # scores 0.7 and 0.2: node 0's group has logits [1, 0.5]
    [A] = attention_matrices(logit(np.array([[0.7], [0.2]])), idx, "agree")
    np.testing.assert_allclose(A, [[1 / (1 + np.exp(-0.5)), 1 / (1 + np.exp(0.5))],
                                   [0.0, 1.0]])


def test_attention_matches_loop_reference():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = rng.integers(2, 30)
        m = rng.integers(0, 4 * n)
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        idx = build_segment_index(src, dst, n)
        left, right = rng.standard_normal((n, 1)) * 5, rng.standard_normal((n, 1)) * 5
        scores = 1.0 / (1.0 + np.exp(-left))
        for kind, attn, lt, rt in (("agree", left, scores, scores),
                                   ("leaky", np.vstack([left, right]), left, right)):
            [got] = attention_matrices(attn, idx, kind)
            want = loop_edge_softmax(lt[:, 0], rt[:, 0], idx, kind)
            np.testing.assert_allclose(got, dense_matrix(want[:, None], idx), atol=1e-12)
            np.testing.assert_allclose(got.sum(axis=1), np.ones(n), atol=1e-12)


def test_attention_shift_invariance():
    idx = small_index()
    rng = np.random.default_rng(3)
    # positive scores: every leaky logit is the plain sum, so a shift of
    # one side shifts every logit alike
    left, right = rng.random((3, 1)) + 0.1, rng.random((3, 1)) + 0.1
    [base] = attention_matrices(np.vstack([left, right]), idx, "leaky")
    [shifted] = attention_matrices(np.vstack([left + 500.0, right]), idx, "leaky")
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    for attn, kind in ((left * 1e4, "agree"), (np.vstack([left * 1e4, -right * 1e4]), "leaky")):
        assert np.all(np.isfinite(attention_matrices(attn, idx, kind)[0]))


def test_attention_rejects_bad_operands():
    idx = small_index()
    with pytest.raises(EngineError, match="attention"):
        attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))), idx, "leaky")  # odd rows
    with pytest.raises(EngineError, match="attention"):
        attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))), idx, "agree")  # 2 x 3 != 4
    with pytest.raises(EngineError, match="kind"):
        attention(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1))), idx, "relu")


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
def test_attention_output_matches_dense_product(src, dst, n):
    rng = np.random.default_rng(11)
    idx = build_segment_index(src, dst, n)
    K, d = 2, 3
    hw = rng.standard_normal((n, K * d))
    for kind, rows in (("agree", d), ("leaky", 2 * d)):
        attn = rng.standard_normal((rows, K))
        out, _ = attention(Tensor(hw), Tensor(attn), idx, kind)
        for k in range(K):
            cols = slice(k * d, (k + 1) * d)
            alpha = loop_edge_softmax(*head_scores(hw[:, cols], attn[:, k], kind), idx, kind)
            want = dense_matrix(alpha[:, None], idx) @ hw[:, cols]
            np.testing.assert_allclose(out.values[:, cols], want, atol=1e-12)


def dense_attention_grads(hw, attn, idx, kind, g, g_score):
    """hw's and attn's gradients of sum(out * g) + sum(score * g_score),
    out keeping the heads side by side, derived head by head with dense
    matrices and plain loops."""
    n, K = idx.num_nodes, attn.shape[1]
    d = hw.shape[1] // K
    g_hw, g_attn = np.zeros_like(hw), np.zeros_like(attn)
    for k in range(K):
        cols = slice(k * d, (k + 1) * d)
        hk, gk = hw[:, cols], g[:, cols]
        left, right = head_scores(hk, attn[:, k], kind)
        alpha = loop_edge_softmax(left, right, idx, kind)
        g_hw[:, cols] += dense_matrix(alpha[:, None], idx).T @ gk
        g_alpha = (gk @ hk.T)[idx.targets, idx.sources]  # d loss / d A[t, s]
        g_logit = np.empty_like(alpha)
        for i in range(n):
            sl = slice(idx.offsets[i], idx.offsets[i + 1])
            g_logit[sl] = alpha[sl] * (g_alpha[sl] - (alpha[sl] * g_alpha[sl]).sum())
        g_left, g_right = np.zeros(n), np.zeros(n)
        for e, (t, s) in enumerate(zip(idx.targets, idx.sources)):
            if kind == "agree":
                step = -g_logit[e] * np.sign(left[t] - right[s])
                g_left[t] += step
                g_right[s] -= step
            else:
                step = g_logit[e] * (1.0 if left[t] + right[s] > 0 else 0.2)
                g_left[t] += step
                g_right[s] += step
        if kind == "agree":
            g_p = (g_left + g_right + g_score[:, 0] / K) * left * (1.0 - left)
            g_hw[:, cols] += np.outer(g_p, attn[:, k])
            g_attn[:, k] = hk.T @ g_p
        else:
            g_hw[:, cols] += np.outer(g_left, attn[:d, k]) + np.outer(g_right, attn[d:, k])
            g_attn[:d, k], g_attn[d:, k] = hk.T @ g_left, hk.T @ g_right
    return g_hw, g_attn


@pytest.mark.parametrize("average", [False, True])
@pytest.mark.parametrize("kind", ["agree", "leaky"])
def test_attention_backward_matches_the_dense_derivation(kind, average):
    rng = np.random.default_rng(12)
    n, K, d = 7, 2, 3
    idx = build_segment_index(rng.integers(0, n, 15), rng.integers(0, n, 15), n)
    hw = leaf(rng.standard_normal((n, K * d)))
    attn = leaf(rng.standard_normal((d if kind == "agree" else 2 * d, K)))
    g = rng.standard_normal((n, d if average else K * d))
    g_score = rng.standard_normal((n, 1))
    with GradTape():
        out, score = attention(hw, attn, idx, kind, average)
        loss = reduce_sum(mul(out, g))
        if score is not None:
            loss = add(loss, reduce_sum(mul(score, g_score)))
        grads = backward(loss)
    # the head mean passes g / K to every head's block
    g_heads = np.tile(g, K) / K if average else g
    want_hw, want_attn = dense_attention_grads(hw.values, attn.values, idx, kind, g_heads,
                                               g_score)
    np.testing.assert_allclose(grads[hw], want_hw, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(grads[attn], want_attn, rtol=1e-10, atol=1e-12)


def test_attention_calls_sharing_an_index_keep_their_own_weights():
    # two calls on one index (and two on one drop-edge index) are
    # recorded before a single backward; each must see its own weights
    # in the forward and again in the backward, as it does on its own
    from oodgat.layers import drop_edge

    rng = np.random.default_rng(14)
    n, K, d = 9, 2, 3
    full = build_segment_index(rng.integers(0, n, 30), rng.integers(0, n, 30), n)
    dropped = drop_edge(full, 0.5, np.random.default_rng(3))
    calls = []
    for idx, kind in ((full, "agree"), (full, "leaky"), (dropped, "agree"), (dropped, "leaky")):
        rows = d if kind == "agree" else 2 * d
        calls.append((idx, kind, leaf(rng.standard_normal((n, K * d))),
                      leaf(rng.standard_normal((rows, K))), rng.standard_normal((n, K * d))))

    def loss_of(idx, kind, hw, attn, g):
        out, _ = attention(hw, attn, idx, kind)
        return out.values, reduce_sum(mul(out, g))

    with GradTape():
        outs, losses = zip(*(loss_of(*call) for call in calls))
        loss = losses[0]
        for term in losses[1:]:
            loss = add(loss, term)
        grads = backward(loss)
    for out, call in zip(outs, calls):
        with GradTape():
            alone, alone_loss = loss_of(*call)
            alone_grads = backward(alone_loss)
        assert np.array_equal(out, alone)
        for t in call[2:4]:
            assert np.array_equal(grads[t], alone_grads[t])


def test_attention_heads_equal_single_head_calls():
    rng = np.random.default_rng(15)
    for trial in range(30):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(0, 4 * n))
        idx = build_segment_index(rng.integers(0, n, m), rng.integers(0, n, m), n)
        K, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kind = ("agree", "leaky")[trial % 2]
        rows = d if kind == "agree" else 2 * d
        hw = leaf(rng.standard_normal((n, K * d)))
        attn = leaf(rng.standard_normal((rows, K)))
        g = rng.standard_normal((n, K * d))
        with GradTape():
            out, _ = attention(hw, attn, idx, kind)
            grads = backward(reduce_sum(mul(out, g)))
        for k in range(K):
            cols = slice(k * d, (k + 1) * d)
            hk, ak = leaf(hw.values[:, cols].copy()), leaf(attn.values[:, k:k + 1].copy())
            with GradTape():
                out_k, _ = attention(hk, ak, idx, kind)
                grads_k = backward(reduce_sum(mul(out_k, g[:, cols].copy())))
            # a head's projection sums in another order when it runs alone
            np.testing.assert_allclose(out.values[:, cols], out_k.values, atol=1e-12)
            np.testing.assert_allclose(grads[hw][:, cols], grads_k[hk], atol=1e-12)
            np.testing.assert_allclose(grads[attn][:, k], grads_k[ak][:, 0], atol=1e-12)


def test_head_blocks_are_built_once_and_share_data():
    idx = small_index()
    A, AT, take = idx.head_blocks(3)
    assert idx.head_blocks(3)[0] is A
    assert np.shares_memory(A.data, AT.data)
    assert A.shape == (9, 9) and len(take) == 3 * idx.num_entries


def test_attention_columns_are_independent():
    rng = np.random.default_rng(16)
    idx = build_segment_index(rng.integers(0, 7, 20), rng.integers(0, 7, 20), 7)
    left, right = rng.standard_normal((7, 3)) * 4, rng.standard_normal((7, 3)) * 4
    scores = 1.0 / (1.0 + np.exp(-left))
    for kind, attn, lt, rt in (("agree", left, scores, scores),
                               ("leaky", np.vstack([left, right]), left, right)):
        for k, got in enumerate(attention_matrices(attn, idx, kind)):
            want = loop_edge_softmax(lt[:, k], rt[:, k], idx, kind)
            np.testing.assert_allclose(got, dense_matrix(want[:, None], idx), atol=1e-12)


def test_attention_mean_score_is_the_head_mean_of_the_node_scores():
    rng = np.random.default_rng(17)
    idx = small_index()
    h = rng.standard_normal((3, 3 * 4))
    a = rng.standard_normal((4, 3))
    _, score = attention(Tensor(h), Tensor(a), idx, "agree")
    want = np.mean([head_scores(h[:, 4 * k:4 * (k + 1)], a[:, k], "agree")[0]
                    for k in range(3)], axis=0)
    np.testing.assert_allclose(score.values[:, 0], want, atol=1e-12)
    assert attention(Tensor(h), Tensor(np.vstack([a, a])), idx, "leaky")[1] is None


def test_attention_rejects_operands_that_do_not_match_the_index():
    idx = small_index()
    with pytest.raises(EngineError, match="attention"):
        attention(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 1))), idx, "agree")
    with pytest.raises(EngineError, match="attention"):
        attention(Tensor(np.ones((2, 2))), Tensor(np.ones((4, 1))), idx, "leaky")


def test_attention_and_log_sum_scatters_match_add_at():
    # repeated (target, source) pairs and repeated rows and entries: each
    # backward scatter adds in entry order, as np.add.at does. Over
    # identity features the projections are attn's rows and the weight
    # gradients the output weights' entries, both exactly, so attn's
    # gradient is the scattered logit gradient (agree: through the sigmoid)
    rng = np.random.default_rng(13)
    src, dst = np.array([1, 1, 2, 3, 3, 0, 4]), np.array([0, 0, 0, 2, 2, 4, 1])
    idx = build_segment_index(src, dst, 5)
    n, K = 5, 2
    t, s, starts = idx.targets, idx.sources, idx.offsets[:-1]
    g = rng.standard_normal((n, K * n))
    g_alpha = np.stack([g[:, k * n:(k + 1) * n][t, s] for k in range(K)], axis=1)
    for kind in ("agree", "leaky"):
        attn = leaf(rng.standard_normal((n if kind == "agree" else 2 * n, K)))
        with GradTape():
            out, _ = attention(Tensor(np.tile(np.eye(n), K)), attn, idx, kind)
            grads = backward(reduce_sum(mul(out, g)))
        # the forward's softmax, as the op computes it
        if kind == "agree":
            w = sigmoid(Tensor(attn.values)).values
            diff = w[t] - w[s]
            z = np.exp((1.0 - np.abs(diff)) - 1.0)
        else:
            raw = attn.values[:n][t] + attn.values[n:][s]
            e = np.where(raw > 0, raw, 0.2 * raw)
            z = np.exp(e - np.maximum.reduceat(e, starts, axis=0)[t])
        y = z / np.add.reduceat(z, starts, axis=0)[t]
        g_logit = y * (g_alpha - np.add.reduceat(g_alpha * y, starts, axis=0)[t])
        if kind == "agree":
            g_left = -g_logit * np.sign(diff)
            g_right = -g_left
        else:
            g_left = g_right = g_logit * np.where(raw > 0, 1.0, 0.2)
        want_t, want_s = np.zeros((n, K)), np.zeros((n, K))
        np.add.at(want_t, t, g_left)
        np.add.at(want_s, s, g_right)
        if kind == "agree":
            np.testing.assert_array_equal(grads[attn], (want_t + want_s) * w * (1.0 - w))
        else:
            np.testing.assert_array_equal(grads[attn], np.vstack([want_t, want_s]))

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
    # repeated rows add their gradients
    rows = np.array([4, 0, 4, 2])
    check(lambda: reduce_sum(mul(take_rows(x, rows), np.arange(12.0).reshape(4, 3))), params)
    check(lambda: cosine_similarity(matmul(x, np.array([[1.0], [0.0], [0.0]])),
                                    matmul(z, np.array([[0.0], [1.0]]))), params)


def test_gradcheck_attention():
    rng = np.random.default_rng(46)
    idx = build_segment_index(rng.integers(0, 6, 12), rng.integers(0, 6, 12), 6)
    hw = leaf(rng.standard_normal((6, 2 * 3)))
    score_mixer = rng.standard_normal((6, 1))
    for kind, rows in (("agree", 3), ("leaky", 6)):
        attn = leaf(rng.standard_normal((rows, 2)))
        for average in (False, True):
            mixer = rng.standard_normal((6, 3 if average else 6))  # weighs outputs unevenly

            def build():
                out, score = attention(hw, attn, idx, kind, average)
                loss = reduce_sum(mul(out, mixer))
                return loss if score is None else add(loss, reduce_sum(mul(score, score_mixer)))

            check(build, {"hw": hw, "attn": attn}, tol=1e-4)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_attention_gradients_do_not_depend_on_the_sddmm_chunk(heads, monkeypatch):
    rng = np.random.default_rng(heads)
    n, d = 300, 3
    idx = build_segment_index(rng.integers(0, n, 2600), rng.integers(0, n, 2600), n)
    entry_bytes = 8 * heads * d  # one entry's gathered row
    # blocks of 512 entries: more than one, the last one partial
    assert idx.num_entries > 512 and idx.num_entries % 512
    hw = leaf(rng.standard_normal((n, heads * d)))
    g = rng.standard_normal((n, heads * d))
    operands = [("agree", leaf(rng.standard_normal((d, heads)))),
                ("leaky", leaf(rng.standard_normal((2 * d, heads))))]
    results = []
    # 512 entries, every entry at once, a small block, and a budget below
    # one entry, which still gathers one entry per block
    for budget in (512 * entry_bytes, (idx.num_entries + 1) * entry_bytes,
                   7 * entry_bytes, entry_bytes - 1):
        monkeypatch.setattr(engine, "_SDDMM_BLOCK_BYTES", budget)
        for kind, attn in operands:
            with GradTape():
                out, _ = attention(hw, attn, idx, kind)
                grads = backward(reduce_sum(mul(out, g)))
            results.append((grads[hw], grads[attn]))
    for i, (g_hw, g_attn) in enumerate(results[2:]):
        want_hw, want_attn = results[i % 2]
        assert np.array_equal(g_hw, want_hw) and np.array_equal(g_attn, want_attn)


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
