"""Objective tests: closed-form values, invariants, and gradient checks."""

import numpy as np
import pytest

from oodgat import engine
from oodgat.engine import GradTape, Tensor, backward, grad_check
from oodgat.errors import ConfigError
from oodgat.graphs import make_graph
from oodgat.layers import ModelConfig, graph_index, init_params, model_forward
from oodgat.losses import (
    LossWeights,
    compute_objective,
    consistency_loss,
    cross_entropy_loss,
    discrepancy_loss,
    entropy_reg_loss,
    entropy_score_vector,
    total_loss,
)


def col(values):
    return Tensor(np.asarray(values, dtype=float).reshape(-1, 1))


def leaf(values):
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_perfect_predictions_zero():
    Z = Tensor(np.eye(3))
    loss = cross_entropy_loss(Z, [0, 1, 2], np.ones(3, bool))
    assert loss.values[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_ce_uniform_is_log_c():
    Z = Tensor(np.full((4, 5), 0.2))
    loss = cross_entropy_loss(Z, [0, 1, 2, 3], np.ones(4, bool))
    assert loss.values[0, 0] == pytest.approx(np.log(5))


def test_ce_closed_form_row():
    Z = Tensor([[0.7, 0.2, 0.1]])
    loss = cross_entropy_loss(Z, [0], np.ones(1, bool))
    assert loss.values[0, 0] == pytest.approx(-np.log(0.7))


def test_ce_respects_mask():
    Z = Tensor([[1.0, 0.0], [0.1, 0.9]])
    mask = np.array([True, False])
    loss = cross_entropy_loss(Z, [0, 0], mask)  # the bad row is masked out
    assert loss.values[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_ce_empty_mask_errors():
    with pytest.raises(ConfigError, match="nonempty"):
        cross_entropy_loss(Tensor(np.eye(2)), [0, 1], np.zeros(2, bool))


# ---------------------------------------------------------------------------
# entropy score vector


def test_entropy_scores_degenerate_rule():
    Z = Tensor(np.full((3, 4), 0.25))
    e = entropy_score_vector(Z).values
    np.testing.assert_allclose(e, 0.5, atol=1e-12)


def test_entropy_scores_two_row_closed_form():
    # raw entropies {ln 4, 0}; population sigma = ln(4)/2; standardized
    # values are +1 and -1, so the outputs are sigmoid(+-1)
    Z = Tensor(np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]]))
    e = entropy_score_vector(Z).values[:, 0]
    np.testing.assert_allclose(e, [1 / (1 + np.exp(-1)), 1 / (1 + np.exp(1))],
                               atol=1e-9)


def test_entropy_scores_are_order_preserving():
    rng = np.random.default_rng(0)
    Z = rng.random((20, 5))
    Z /= Z.sum(axis=1, keepdims=True)
    raw = -(Z * np.log(Z)).sum(axis=1)
    e = entropy_score_vector(Tensor(Z)).values[:, 0]
    order_raw = np.argsort(raw)
    order_e = np.argsort(e)
    np.testing.assert_array_equal(order_raw, order_e)


def test_entropy_scores_need_two_rows():
    with pytest.raises(ConfigError, match="2 nodes"):
        entropy_score_vector(Tensor([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# consistency / discrepancy


def test_consistency_perfect_alignment():
    w = col([0.9, 0.1, 0.8])
    assert consistency_loss(w, w, w).values[0, 0] == pytest.approx(-1.0)


def test_consistency_orthogonal_is_zero():
    w = col([1.0, 0.0])
    e = col([0.0, 1.0])
    assert consistency_loss(w, w, e).values[0, 0] == pytest.approx(0.0)


def test_consistency_half_aligned():
    e = col([1.0, 0.0])
    w2 = col([0.0, 1.0])
    assert consistency_loss(e, w2, e).values[0, 0] == pytest.approx(-0.5)


def test_consistency_scale_invariance():
    rng = np.random.default_rng(1)
    w1 = rng.random((6, 1))
    w2 = rng.random((6, 1))
    e = rng.random((6, 1))
    a = consistency_loss(Tensor(w1), Tensor(w2), Tensor(e)).values[0, 0]
    b = consistency_loss(Tensor(3 * w1), Tensor(0.5 * w2), Tensor(7 * e)).values[0, 0]
    assert a == pytest.approx(b, abs=1e-12)


def test_discrepancy_closed_forms():
    assert discrepancy_loss(col([1, 0]), col([1, 0])).values[0, 0] == pytest.approx(-1.0)
    assert discrepancy_loss(col([1, 0]), col([0, 1])).values[0, 0] == pytest.approx(0.0)
    assert discrepancy_loss(col([1, 0]), col([1, 1])).values[0, 0] == pytest.approx(-1 / np.sqrt(2))


# ---------------------------------------------------------------------------
# entropy regularizer


def test_entropy_reg_uniform_rows_hit_log_c():
    Z = Tensor(np.full((4, 3), 1 / 3))
    loss = entropy_reg_loss(Z, np.full(4, 0.9), epsilon=0.6)
    assert loss.values[0, 0] == pytest.approx(np.log(3))


def test_entropy_reg_no_selection_returns_zero():
    Z = Tensor(np.full((4, 3), 1 / 3))
    assert entropy_reg_loss(Z, np.full(4, 0.5), epsilon=1.0).values[0, 0] == 0.0


def test_entropy_reg_selected_row_closed_form():
    Z = Tensor(np.array([[0.5, 0.25, 0.25], [0.9, 0.05, 0.05]]))
    loss = entropy_reg_loss(Z, np.array([0.9, 0.1]), epsilon=0.6)
    want = -(np.log(0.5) + np.log(0.25) + np.log(0.25)) / 3
    assert loss.values[0, 0] == pytest.approx(want)
    assert want == pytest.approx(1.1552, abs=1e-4)


def test_entropy_reg_lower_bound_log_c():
    rng = np.random.default_rng(2)
    for _ in range(20):
        Z = rng.random((6, 4))
        Z /= Z.sum(axis=1, keepdims=True)
        loss = entropy_reg_loss(Tensor(Z), np.full(6, 0.99), epsilon=0.5)
        assert loss.values[0, 0] >= np.log(4) - 1e-12


def test_entropy_reg_gradient_points_toward_uniform():
    # one gradient step on the row distribution must reduce the loss
    logits = leaf(np.array([[2.0, -1.0, 0.5]]))
    w = np.array([0.9])

    def run(vals):
        logits.values = vals
        with GradTape():
            Z = engine.row_softmax(logits)
            loss = entropy_reg_loss(Z, w, epsilon=0.5)
            grads = backward(loss)
        return loss.values[0, 0], grads[logits]

    before, grad = run(np.array([[2.0, -1.0, 0.5]]))
    after, _ = run(np.array([[2.0, -1.0, 0.5]]) - 0.1 * grad)
    assert after < before


def test_entropy_reg_selection_length_mismatch():
    with pytest.raises(ConfigError, match="every node"):
        entropy_reg_loss(Tensor(np.eye(3)), np.ones(2), epsilon=0.5)


# ---------------------------------------------------------------------------
# composite


def test_loss_weights_validation():
    with pytest.raises(ConfigError, match=">= 0"):
        LossWeights(beta=-1)
    with pytest.raises(ConfigError, match="decay base"):
        LossWeights(a=0.0)
    with pytest.raises(ConfigError, match="decay rate"):
        LossWeights(b=0.0)
    with pytest.raises(ConfigError, match="epsilon"):
        LossWeights(epsilon=1.0)


def test_decay_schedule():
    w = LossWeights(a=0.9, b=0.01)
    assert w.decay(0) == 1.0
    assert w.decay(100) == pytest.approx(0.9)
    values = [w.decay(t) for t in range(0, 500, 50)]
    assert values == sorted(values, reverse=True)


def test_total_loss_pure_ce_when_weights_zero():
    ce = Tensor([[1.2345]])
    total, breakdown = total_loss({"ce": ce}, LossWeights(), t=7)
    assert total is ce
    assert breakdown.total == 1.2345
    assert breakdown.con == breakdown.ent == breakdown.dis == 0.0


def test_total_loss_breakdown_invariant():
    parts = {"ce": Tensor([[0.5]]), "con": Tensor([[-0.8]]),
             "ent": Tensor([[1.4]]), "dis": Tensor([[-0.9]])}
    w = LossWeights(beta=2.0, gamma=0.05, zeta=0.005)
    total, b = total_loss(parts, w, t=100)
    want = b.ce + b.decay * (2.0 * b.con + 0.05 * b.ent + 0.005 * b.dis)
    assert b.total == pytest.approx(want, abs=1e-12)
    assert total.values[0, 0] == pytest.approx(want, abs=1e-12)
    assert b.decay == pytest.approx(0.9)


def test_total_loss_rejects_negative_step():
    with pytest.raises(ConfigError, match=">= 0"):
        total_loss({"ce": Tensor([[1.0]])}, LossWeights(), t=-1)


# ---------------------------------------------------------------------------
# full objective on a model


def tiny_model(seed=0, n=8):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    edges = edges or [(0, 1)]
    g = make_graph(n, edges, rng.standard_normal((n, 5)),
                   rng.integers(0, 3, n), np.zeros(n, np.int8))
    cfg = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=4)
    params = init_params(cfg, 5, rng)
    for name, t in params.items():
        if name.endswith(".a"):  # one (rows, 1) draw per head, in head order
            t.values = np.hstack([rng.uniform(0.05, 0.3, (t.shape[0], 1))
                                  for _ in range(cfg.heads)])
    mask = np.zeros(n, bool)
    mask[: n // 2] = True
    return g, cfg, params, mask


def test_compute_objective_breakdown_consistency():
    g, cfg, params, mask = tiny_model()
    out = model_forward(cfg, params, g.features, graph_index(g))
    w = LossWeights(beta=2.0, gamma=0.05, zeta=0.005, epsilon=0.3)
    total, b = compute_objective(out, g.labels, mask, w, t=10)
    want = b.ce + b.decay * (w.beta * b.con + w.gamma * b.ent + w.zeta * b.dis)
    assert b.total == pytest.approx(want, abs=1e-12)
    assert np.isfinite(total.values[0, 0])


def test_compute_objective_baseline_needs_no_scores():
    g, _, _, mask = tiny_model()
    cfg = ModelConfig(architecture="gcn", num_classes=3)
    params = init_params(cfg, 5, np.random.default_rng(1))
    out = model_forward(cfg, params, g.features, graph_index(g))
    total, b = compute_objective(out, g.labels, mask, LossWeights(), t=0)
    assert b.total == b.ce
    with pytest.raises(ConfigError, match="OOD scores"):
        compute_objective(out, g.labels, mask, LossWeights(beta=1.0), t=0)


def test_full_objective_gradcheck_all_terms():
    g, cfg, params, mask = tiny_model(seed=5)
    idx = graph_index(g)
    weights = LossWeights(beta=2.0, gamma=0.05, zeta=0.005, epsilon=0.2)

    def build():
        out = model_forward(cfg, params, g.features, idx)
        total, _ = compute_objective(out, g.labels, mask, weights, t=3)
        return total

    report = grad_check(build, params, tol=1e-4)
    assert report.passed, report.per_param


def test_backward_linearity_of_summed_losses():
    # gradient of (ce + dis) equals gradient of ce plus gradient of dis
    g, cfg, params, mask = tiny_model(seed=7)
    idx = graph_index(g)

    def grad_of(build):
        with GradTape():
            return backward(build())[params["l1.W"]]

    def ce_only():
        out = model_forward(cfg, params, g.features, idx)
        return cross_entropy_loss(out.probs, g.labels, mask)

    def dis_only():
        out = model_forward(cfg, params, g.features, idx)
        return discrepancy_loss(out.w1, out.w2)

    def both():
        out = model_forward(cfg, params, g.features, idx)
        return engine.add(cross_entropy_loss(out.probs, g.labels, mask),
                          discrepancy_loss(out.w1, out.w2))

    np.testing.assert_allclose(grad_of(both), grad_of(ce_only) + grad_of(dis_only),
                               atol=1e-12)
