"""Model layer tests.

Every aggregation layer is checked against a dense-matrix oracle built
with plain numpy, and full models pass finite-difference gradient checks
on small graphs.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from oodgat import engine
from oodgat.engine import Tensor, build_segment_index, grad_check
from oodgat.errors import ConfigError
from oodgat.graphs import make_graph
from oodgat.layers import (
    ModelConfig,
    _input_dropout,
    clone_params,
    drop_edge,
    gcn_layer,
    graph_index,
    init_params,
    model_forward,
    receptive_field,
    restore_params,
)
from oodgat.training import TrainConfig


def toy_graph(n=6, seed=0, num_classes=3, p=0.5):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    labels = rng.integers(0, num_classes, size=n)
    return make_graph(n, edges, rng.standard_normal((n, 4)), labels,
                      np.zeros(n, dtype=np.int8))


def group_slices(index):
    for i in range(index.num_nodes):
        yield i, slice(index.offsets[i], index.offsets[i + 1])


def attention_layer(h, index, W, attn, kind, average=False):
    """The attention architectures' layer: the product h W, then the op."""
    return engine.attention(engine.matmul(h, W), attn, index, kind, average)


def agreement_attention(scores, index):
    """(E, 1) attention of the OOD-aware layer for node scores in (0, 1),
    from one head over identity features: its scorer a = logit(scores)
    gives the scores back, and its output A @ I is the attention matrix
    (the indices here hold no repeated entry)."""
    n = index.num_nodes
    a = np.log(scores) - np.log1p(-scores)
    out, _ = engine.attention(Tensor(np.eye(n)), Tensor(a), index, "agree")
    return out.values[index.targets, index.sources][:, None]


# ---------------------------------------------------------------------------
# attention from OOD scores


def test_attention_equal_scores_uniform():
    g = toy_graph()
    idx = graph_index(g)
    alpha = agreement_attention(np.full((g.num_nodes, 1), 0.37), idx)
    for i, sl in group_slices(idx):
        np.testing.assert_allclose(alpha[sl, 0], 1.0 / (sl.stop - sl.start), atol=1e-12)


def test_attention_raw_agreement_values():
    # two nodes, one edge: scores 0.7 and 0.2 give e = 0.5 on the cross
    # entries and e = 1 on self entries
    idx = build_segment_index(np.array([0, 1]), np.array([1, 0]), 2)
    scores = np.array([[0.7], [0.2]])
    w_t = scores[idx.targets, 0]
    w_s = scores[idx.sources, 0]
    e = 1 - np.abs(w_t - w_s)
    np.testing.assert_allclose(np.sort(e), [0.5, 0.5, 1.0, 1.0])
    alpha = agreement_attention(scores, idx)
    for i, sl in group_slices(idx):
        assert alpha[sl].sum() == pytest.approx(1.0)


def test_attention_separates_clean_clusters():
    # scores near 0 on one side, near 1 on the other: pre-softmax e is 1
    # within a cluster and near 0 across, so cross-edge attention is
    # strictly smaller
    g = make_graph(4, [(0, 1), (2, 3), (1, 2)], np.zeros((4, 2)),
                   [0, 0, 1, 1], [0, 0, 1, 1])
    idx = graph_index(g)
    scores = np.array([[1e-9], [1e-9], [1 - 1e-9], [1 - 1e-9]])
    alpha = agreement_attention(scores, idx)[:, 0]
    intra = (scores[idx.targets, 0] == scores[idx.sources, 0])
    # node 1's group holds both kinds; its cross entry must get less mass
    sl = slice(idx.offsets[1], idx.offsets[2])
    cross_mass = alpha[sl][~intra[sl]]
    intra_mass = alpha[sl][intra[sl]]
    assert cross_mass.max() < intra_mass.min()


def test_attention_self_entry_dominates_group():
    rng = np.random.default_rng(7)
    g = toy_graph(n=10, seed=3)
    idx = graph_index(g)
    alpha = agreement_attention(rng.random((10, 1)), idx)[:, 0]
    for i, sl in group_slices(idx):
        self_alpha = alpha[sl][idx.sources[sl] == i]
        assert np.all(self_alpha >= alpha[sl] - 1e-12)


def test_attention_score_flip_invariance():
    rng = np.random.default_rng(8)
    g = toy_graph(n=8, seed=5)
    idx = graph_index(g)
    w = rng.random((8, 1))
    a = agreement_attention(w, idx)
    b = agreement_attention(1.0 - w, idx)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_attention_group_sums_to_one():
    rng = np.random.default_rng(9)
    for seed in range(5):
        g = toy_graph(n=12, seed=seed)
        idx = graph_index(g)
        alpha = agreement_attention(rng.random((12, 1)), idx)[:, 0]
        sums = np.add.reduceat(alpha, idx.offsets[:-1])
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# dense oracles


def dense_adjacency(index, n):
    A = np.zeros((n, n))
    for t, s in zip(index.targets, index.sources):
        A[t, s] += 1.0
    return A


# 3 output columns propagate after the product with W, 6 before it
@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize("form", ["tensor", "array", "csr"])
def test_gcn_layer_matches_dense_oracle(form, width):
    rng = np.random.default_rng(1)
    g = toy_graph(n=5, seed=2)
    idx = graph_index(g)
    h = rng.standard_normal((5, 4))
    W = Tensor(rng.standard_normal((4, width)), requires_grad=True)
    given = {"tensor": Tensor(h), "array": h, "csr": sp.csr_matrix(h)}[form]
    got = gcn_layer(given, idx, W).values

    A_hat = dense_adjacency(idx, 5)  # self entries already included
    deg = A_hat.sum(axis=1)
    D = np.diag(1.0 / np.sqrt(deg))
    want = D @ A_hat @ D @ h @ W.values
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_gcn_layer_gradients_in_both_orders():
    rng = np.random.default_rng(3)
    idx = graph_index(toy_graph(n=6, seed=4))
    for width in (2, 5):  # h has 3 columns
        h = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        W = Tensor(rng.standard_normal((3, width)), requires_grad=True)
        mixer = rng.standard_normal((6, width))
        report = grad_check(lambda: engine.reduce_sum(engine.mul(gcn_layer(h, idx, W), mixer)),
                            {"h": h, "W": W}, tol=1e-6)
        assert report.passed, (width, report.per_param)


@pytest.mark.parametrize("training", [None, TrainConfig(dropout_p=0.5)], ids=["eval", "dropout"])
def test_narrow_gcn_features_are_aggregated_off_the_tape(training):
    g = toy_graph(n=8, seed=26)  # 4 features
    nodes = {}
    for width in (3, 8):
        cfg = ModelConfig(architecture="gcn", num_classes=3, hidden_dim=width)
        params = init_params(cfg, g.num_features, np.random.default_rng(10))
        with engine.GradTape():
            out = model_forward(cfg, params, g.features, graph_index(g), training=training,
                                rng=np.random.default_rng(11))
        nodes[width] = out.probs.tape_id + 1  # the softmax is the last node recorded
    # X W1, P (X W1), elu, [hidden dropout], h W2, P (h W2), softmax; with 8
    # hidden columns P X is a constant, so only (P X) W1 is recorded
    assert nodes[3] == 6 + (training is not None)
    assert nodes[8] == nodes[3] - 1


def test_gcn_single_selfloop_node():
    idx = build_segment_index(np.array([], dtype=int), np.array([], dtype=int), 1)
    h = np.array([[2.0, -1.0]])
    W = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = gcn_layer(Tensor(h), idx, W).values
    np.testing.assert_allclose(out, h)  # degree 1, coeff 1, identity W


def test_gcn_symmetric_nodes_agree():
    idx = build_segment_index(np.array([0, 1]), np.array([1, 0]), 2)
    h = np.array([[1.0, 2.0], [1.0, 2.0]])
    W = Tensor(np.eye(2))
    out = gcn_layer(Tensor(h), idx, W).values
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def head_block(x, k, K):
    """Column block k of K equal blocks."""
    d = x.shape[1] // K
    return x[:, k * d:(k + 1) * d]


def test_gat_layer_matches_dense_oracle():
    for K in (1, 2):
        check_gat_layer_against_dense_oracle(K)


def check_gat_layer_against_dense_oracle(K):
    rng = np.random.default_rng(4)
    g = toy_graph(n=5, seed=6)
    idx = graph_index(g)
    h = rng.standard_normal((5, 4))
    W = Tensor(rng.standard_normal((4, 3 * K)))
    attn = Tensor(rng.standard_normal((6, K)))
    out, score = attention_layer(Tensor(h), idx, W, attn, "leaky")
    got = engine.elu(out)
    assert score is None

    A = dense_adjacency(idx, 5) > 0
    want = np.zeros((5, 3 * K))
    for k in range(K):
        hw = h @ head_block(W.values, k, K)
        left, right = attn.values[:3, k], attn.values[3:, k]
        for i in range(5):
            nbrs = np.flatnonzero(A[i])
            logits = []
            for j in nbrs:
                z = left @ hw[i] + right @ hw[j]
                logits.append(z if z > 0 else 0.2 * z)
            logits = np.array(logits)
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            want[i, 3 * k:3 * (k + 1)] = (alpha[:, None] * hw[nbrs]).sum(axis=0)
    want = np.where(want > 0, want, np.expm1(want))
    np.testing.assert_allclose(got.values, want, atol=1e-9)


def test_gat_identical_features_uniform_attention():
    idx = build_segment_index(np.array([0, 1, 0, 2]), np.array([1, 0, 2, 0]), 3)
    h = np.ones((3, 2))
    rng = np.random.default_rng(0)
    W = Tensor(rng.standard_normal((2, 2)))
    attn = Tensor(rng.standard_normal((4, 1)))
    out, _ = attention_layer(Tensor(h), idx, W, attn, "leaky")
    # all nodes identical: aggregation result equals hw rows themselves
    hw = h @ W.values
    np.testing.assert_allclose(engine.elu(out).values, np.where(hw > 0, hw, np.expm1(hw)),
                               atol=1e-12)


def test_oodgat_prediction_layer_matches_dense_oracle():
    for K in (1, 2):
        check_oodgat_prediction_layer_against_dense_oracle(K)


def check_oodgat_prediction_layer_against_dense_oracle(K):
    rng = np.random.default_rng(11)
    n, d, C = 10, 6, 3
    g = toy_graph(n=n, seed=12)
    idx = graph_index(g)
    h = rng.standard_normal((n, d))
    W = Tensor(rng.standard_normal((d, C * K)), requires_grad=True)
    a = Tensor(rng.standard_normal((C, K)), requires_grad=True)
    out, mean_score = attention_layer(Tensor(h), idx, W, a, "agree", average=True)
    hidden = engine.row_softmax(out)

    A = dense_adjacency(idx, n) > 0
    agg = np.zeros((n, C))
    scores = np.zeros((n, K))
    for k in range(K):
        hw = h @ head_block(W.values, k, K)
        w = 1.0 / (1.0 + np.exp(-(hw @ a.values[:, k])))
        for i in range(n):
            nbrs = np.flatnonzero(A[i])
            e = 1.0 - np.abs(w[i] - w[nbrs])
            alpha = np.exp(e - e.max())
            alpha /= alpha.sum()
            agg[i] += (alpha[:, None] * hw[nbrs]).sum(axis=0) / K
        scores[:, k] = w
    z = np.exp(agg - agg.max(axis=1, keepdims=True))
    want = z / z.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(hidden.values, want, atol=1e-9)
    np.testing.assert_allclose(hidden.values.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(mean_score.values[:, 0], scores.mean(axis=1), atol=1e-12)


def test_oodgat_isolated_node_is_plain_transform():
    idx = build_segment_index(np.array([], dtype=int), np.array([], dtype=int), 1)
    rng = np.random.default_rng(13)
    for K in (1, 2):
        h = rng.standard_normal((1, 4))
        W = Tensor(rng.standard_normal((4, 3 * K)))
        a = Tensor(rng.standard_normal((3, K)))
        out, _ = attention_layer(Tensor(h), idx, W, a, "agree")
        want = h @ W.values
        want = np.where(want > 0, want, np.expm1(want))
        np.testing.assert_allclose(engine.elu(out).values, want, atol=1e-12)


def test_oodgat_duplicate_heads_duplicate_output():
    # K = 2 copies of one head give that head twice, or once when averaged
    rng = np.random.default_rng(14)
    g = toy_graph(n=7, seed=15)
    idx = graph_index(g)
    h = Tensor(rng.standard_normal((7, 4)))
    W = rng.standard_normal((4, 3))
    models = (("agree", 3), ("leaky", 6))
    for (kind, rows), average in itertools.product(models, (False, True)):
        a = rng.standard_normal((rows, 1))
        single, single_score = attention_layer(h, idx, Tensor(W), Tensor(a), kind,
                                               average=average)
        double, double_score = attention_layer(h, idx, Tensor(np.hstack([W, W])),
                                               Tensor(np.hstack([a, a])), kind,
                                               average=average)
        want = single.values if average else np.hstack([single.values] * 2)
        np.testing.assert_allclose(double.values, want, atol=1e-12)
        if kind == "agree":
            np.testing.assert_allclose(double_score.values, single_score.values, atol=1e-12)


def test_duplicate_neighbor_entry_counts_twice():
    # a hand-built index with one duplicated entry must match the dense
    # oracle where that adjacency entry has multiplicity 2
    from oodgat.engine import SegmentIndex

    idx = SegmentIndex(sources=np.array([0, 1, 1, 0, 1]), offsets=np.array([0, 3, 5]))
    rng = np.random.default_rng(16)
    h = rng.standard_normal((2, 3))
    W = Tensor(np.eye(3))
    got = gcn_layer(Tensor(h), idx, W).values
    deg = np.array([3.0, 2.0])  # entry counts per target group
    A = np.array([[1.0, 2.0], [1.0, 1.0]])
    want = (A / np.sqrt(deg[:, None] * deg[None, :])) @ h
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# configs and parameters


def test_model_config_validation():
    with pytest.raises(ConfigError, match="unknown architecture"):
        ModelConfig(architecture="sage", num_classes=3)
    with pytest.raises(ConfigError, match="heads"):
        ModelConfig(architecture="gcn", num_classes=3, heads=4)
    assert ModelConfig(architecture="oodgat", num_classes=4).width == 32
    assert ModelConfig(architecture="gcn", num_classes=4).width == 64
    assert ModelConfig(architecture="gcn", num_classes=4, hidden_dim=16).width == 16


def test_init_params_shapes_and_zero_scores():
    cfg = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=8)
    params = init_params(cfg, in_dim=5, rng=np.random.default_rng(0))
    assert params["l1.W"].shape == (5, 16)
    assert params["l1.a"].shape == (8, 2)
    assert params["l2.W"].shape == (16, 6)
    assert params["l2.a"].shape == (3, 2)
    np.testing.assert_array_equal(params["l1.a"].values, 0.0)
    np.testing.assert_array_equal(params["l2.a"].values, 0.0)
    assert all(t.requires_grad for t in params.values())


def per_head_glorot_draws(arch, in_dim, width, heads, C, rng):
    """The per-head parameters of one Glorot draw per head matrix, in head
    order per layer (gat: W, then attn), as separate arrays."""
    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    out = {}
    for layer, rows, cols in (("l1", in_dim, width), ("l2", heads * width, C)):
        for k in range(heads):
            out[f"{layer}.h{k}.W"] = glorot(rows, cols)
            if arch == "gat":
                out[f"{layer}.h{k}.attn"] = glorot(2 * cols, 1)
    return out


@pytest.mark.parametrize("arch", ["gat", "oodgat"])
def test_fused_init_stacks_per_head_draws(arch):
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=3, hidden_dim=4)
    params = init_params(cfg, 5, np.random.default_rng(21))
    heads = per_head_glorot_draws(arch, 5, 4, 3, 3, np.random.default_rng(21))
    for layer in ("l1", "l2"):
        np.testing.assert_array_equal(
            params[f"{layer}.W"].values, np.hstack([heads[f"{layer}.h{k}.W"] for k in range(3)]))
        if arch == "gat":
            np.testing.assert_array_equal(
                params[f"{layer}.attn"].values,
                np.hstack([heads[f"{layer}.h{k}.attn"] for k in range(3)]))
    assert sorted(params) == (["l1.W", "l1.attn", "l2.W", "l2.attn"] if arch == "gat"
                              else ["l1.W", "l1.a", "l2.W", "l2.a"])


def test_init_params_deterministic():
    cfg = ModelConfig(architecture="gat", num_classes=3, heads=2)
    a = init_params(cfg, 7, np.random.default_rng(42))
    b = init_params(cfg, 7, np.random.default_rng(42))
    for name in a:
        np.testing.assert_array_equal(a[name].values, b[name].values)


# ---------------------------------------------------------------------------
# model forward


@pytest.mark.parametrize("arch,heads", [("mlp", 1), ("gcn", 1), ("gat", 2), ("oodgat", 2)])
def test_forward_rows_are_probabilities(arch, heads):
    g = toy_graph(n=9, seed=17)
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=6)
    params = init_params(cfg, g.num_features, np.random.default_rng(1))
    out = model_forward(cfg, params, g.features, graph_index(g))
    np.testing.assert_allclose(out.probs.values.sum(axis=1), 1.0, atol=1e-9)
    if arch == "oodgat":
        assert out.w1 is not None and out.w2 is not None
        assert out.att_score.shape == (9,)
        assert np.all((out.att_score > 0) & (out.att_score < 1))
    else:
        assert out.att_score is None


def test_mlp_ignores_edges():
    g1 = toy_graph(n=8, seed=18)
    g2 = make_graph(8, [(0, 7), (1, 6)], g1.features, g1.labels, g1.identity)
    cfg = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=5)
    params = init_params(cfg, g1.num_features, np.random.default_rng(2))
    a = model_forward(cfg, params, g1.features, graph_index(g1))
    b = model_forward(cfg, params, g2.features, graph_index(g2))
    np.testing.assert_array_equal(a.probs.values, b.probs.values)


def test_eval_forward_is_bit_deterministic():
    g = toy_graph(n=10, seed=19)
    cfg = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=4)
    params = init_params(cfg, g.num_features, np.random.default_rng(3))
    idx = graph_index(g)
    # an evaluation pass draws nothing, whatever rng it is handed
    a = model_forward(cfg, params, g.features, idx, training=None,
                      rng=np.random.default_rng(5))
    b = model_forward(cfg, params, g.features, idx, training=None,
                      rng=np.random.default_rng(6))
    assert np.array_equal(a.probs.values, b.probs.values)


class RecordingRng:
    """A Generator stand-in that logs the size of each `random` draw and
    delegates it to a real Generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("arch,heads", [("mlp", 1), ("gcn", 1), ("gat", 2), ("oodgat", 2)])
def test_training_forward_draws_in_the_documented_order(arch, heads, form):
    g = toy_graph(n=9, seed=27)
    features = g.features if form == "dense" else sp.csr_matrix(g.features)
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=6)
    params = init_params(cfg, g.num_features, np.random.default_rng(12))
    training = TrainConfig(dropout_p=0.5, drop_edge_p=0.4)
    rng = RecordingRng(13)
    out = model_forward(cfg, params, features, graph_index(g), training=training, rng=rng)
    # input dropout, layer-1 edges, hidden dropout, layer-2 edges; mlp reads no edges
    x = g.features.shape if form == "dense" else features.nnz
    E, hidden = graph_index(g).num_entries, (9, 6 * heads)
    assert rng.sizes == ([x, hidden] if arch == "mlp" else [x, E, hidden, E])
    plain = model_forward(cfg, params, features, graph_index(g), training=training,
                          rng=np.random.default_rng(13))
    assert np.array_equal(out.probs.values, plain.probs.values)


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("arch,heads", [("mlp", 1), ("gcn", 1), ("gat", 2), ("oodgat", 2)])
def test_training_field_forward_draws_as_the_full_forward(arch, heads, form):
    g = toy_graph(n=9, seed=27, p=0.2)
    features = g.features if form == "dense" else sp.csr_matrix(g.features)
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=6)
    params = init_params(cfg, g.num_features, np.random.default_rng(12))
    training = TrainConfig(dropout_p=0.5)
    field = receptive_field(graph_index(g), [1, 5], arch)
    rng = RecordingRng(13)
    model_forward(cfg, params, features, field, training=training, rng=rng)
    # whole-graph masks, input then hidden, however few rows the field keeps
    x = g.features.shape if form == "dense" else features.nnz
    assert rng.sizes == [x, (9, 6 * heads)]
    plain = np.random.default_rng(13)
    model_forward(cfg, params, features, graph_index(g), training=training, rng=plain)
    assert rng.rng.bit_generator.state == plain.bit_generator.state


def test_training_forward_needs_rng():
    g = toy_graph(n=5, seed=20)
    cfg = ModelConfig(architecture="gcn", num_classes=3)
    params = init_params(cfg, g.num_features, np.random.default_rng(4))
    with pytest.raises(ConfigError, match="rng"):
        model_forward(cfg, params, g.features, graph_index(g),
                      training=TrainConfig(dropout_p=0.5))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_sparse_input_dropout_keeps_only_surviving_entries(p):
    x = sp.random(40, 30, density=0.2, format="csr", random_state=7,
                  data_rvs=lambda k: np.random.default_rng(8).standard_normal(k))
    w = np.random.default_rng(9).standard_normal((30, 5))
    g = np.random.default_rng(10).standard_normal((40, 5))
    rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    out = _input_dropout(x, p, rng)
    # the construction that kept every dropped entry as an explicit 0.0
    keep = old_rng.random(x.nnz) >= p
    old = sp.csr_matrix((np.where(keep, x.data / (1.0 - p), 0.0), x.indices, x.indptr),
                        shape=x.shape)
    assert out.nnz == np.count_nonzero(keep) and np.all(out.data != 0)
    assert np.array_equal(out @ w, old @ w)
    assert np.array_equal(out.T @ g, old.T @ g)
    assert rng.bit_generator.state == old_rng.bit_generator.state


def test_sparse_features_match_dense_forward():
    g = toy_graph(n=8, seed=21)
    feats = np.where(np.random.default_rng(5).random(g.features.shape) < 0.7,
                     0.0, g.features)
    cfg = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=4)
    params = init_params(cfg, feats.shape[1], np.random.default_rng(6))
    idx = graph_index(g)
    dense = model_forward(cfg, params, feats, idx)
    sparse = model_forward(cfg, params, sp.csr_matrix(feats), idx)
    np.testing.assert_allclose(dense.probs.values, sparse.probs.values, atol=1e-12)


def test_drop_edge_keeps_self_entries():
    g = toy_graph(n=12, seed=22, p=0.6)
    idx = graph_index(g)
    rng = np.random.default_rng(7)
    dropped = drop_edge(idx, 0.9, rng)
    assert dropped.num_entries >= idx.num_nodes
    np.testing.assert_array_equal(
        dropped.targets[dropped.self_pos], np.arange(12))
    # offsets stay consistent
    assert dropped.offsets[-1] == dropped.num_entries


def test_drop_edge_keeps_the_entries_of_the_reference_mask():
    g = toy_graph(n=12, seed=25, p=0.6)
    idx = graph_index(g)
    dropped = drop_edge(idx, 0.5, np.random.default_rng(31))
    # reference: one uniform draw per entry in entry order, self entries kept
    keep = np.random.default_rng(31).random(idx.num_entries) >= 0.5
    keep[idx.self_pos] = True
    np.testing.assert_array_equal(dropped.targets, idx.targets[keep])
    np.testing.assert_array_equal(dropped.sources, idx.sources[keep])
    np.testing.assert_array_equal(
        dropped.offsets, np.concatenate([[0], np.cumsum(np.bincount(idx.targets[keep],
                                                                    minlength=12))]))


def test_drop_edge_zero_rate_returns_index_unchanged():
    g = toy_graph(n=6, seed=23)
    idx = graph_index(g)
    assert drop_edge(idx, 0.0, np.random.default_rng(0)) is idx


# ---------------------------------------------------------------------------
# gradients through full models


@pytest.mark.parametrize("arch,heads", [("mlp", 1), ("gcn", 1), ("gat", 2), ("oodgat", 2)])
def test_full_model_gradcheck(arch, heads):
    g = toy_graph(n=8, seed=24)
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=3)
    params = init_params(cfg, g.num_features, np.random.default_rng(8))
    # move score vectors off zero so the abs kink is not at the sample point;
    # every head gets the same draw
    for name, t in params.items():
        if name.endswith(".a"):
            t.values = np.hstack([np.random.default_rng(9).uniform(0.1, 0.5, (t.shape[0], 1))
                                  for _ in range(heads)])
    idx = graph_index(g)
    mask = np.zeros(8, dtype=bool)
    mask[:4] = True

    def build():
        out = model_forward(cfg, params, g.features, idx)
        return engine.log_sum(out.probs, np.flatnonzero(mask),
                              g.labels[mask] % cfg.num_classes, -1.0 / mask.sum())

    report = grad_check(build, params, tol=1e-4)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# parameter snapshots


def test_clone_restore_params():
    cfg = ModelConfig(architecture="gcn", num_classes=2, hidden_dim=3)
    params = init_params(cfg, 4, np.random.default_rng(11))
    snap = clone_params(params)
    params["l1.W"].values += 5.0
    restore_params(params, snap)
    np.testing.assert_array_equal(params["l1.W"].values, snap["l1.W"])
