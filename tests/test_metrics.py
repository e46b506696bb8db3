"""Metric tests against brute-force oracles.

The AUROC oracle counts all (pos, neg) pairs in O(m^2); the joint-F1
oracle enumerates every threshold with naive loops. Both comparisons are
exact equality: the numerators on both routes are multiples of 0.5 over
the same denominators.
"""

import numpy as np
import pytest

from oodgat.engine import Tensor
from oodgat.errors import MetricError
from oodgat.graphs import SbmSpec, sbm_generate
from oodgat.layers import ModelConfig, ModelOutputs, graph_index, init_params, model_forward
from oodgat.metrics import (
    ScoredNodes,
    accuracy,
    aupr,
    auroc,
    detection_scores,
    fpr_at_tpr,
    joint_f1,
    roc_points,
)


def scored(scores, identity):
    scores = np.asarray(scores, dtype=float)
    return ScoredNodes(scores=scores, identity=np.asarray(identity),
                       eval_mask=np.ones(len(scores), dtype=bool))


# ---------------------------------------------------------------------------
# oracles


def pairwise_auroc(scores, identity):
    pos = [s for s, y in zip(scores, identity) if y]
    neg = [s for s, y in zip(scores, identity) if not y]
    num = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                num += 1.0
            elif p == n:
                num += 0.5
    return num / (len(pos) * len(neg))


def oracle_weighted_f1(true_cls, pred_cls, num_classes):
    total = len(true_cls)
    acc = 0.0
    for c in range(num_classes):
        support = sum(1 for t in true_cls if t == c)
        if support == 0:
            continue
        tp = sum(1 for t, p in zip(true_cls, pred_cls) if t == c and p == c)
        predicted = sum(1 for p in pred_cls if p == c)
        if tp == 0:
            continue
        precision = tp / predicted
        recall = tp / support
        acc += support * (2 * precision * recall / (precision + recall))
    return acc / total


def oracle_joint_f1(probs, scores, labels, identity):
    C = probs.shape[1]
    true_cls = [C if identity[i] else int(labels[i]) for i in range(len(scores))]
    pred_id = [int(np.argmax(probs[i])) for i in range(len(scores))]
    best, best_theta = -1.0, np.inf
    for theta in [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]:
        pred = [C if scores[i] >= theta else pred_id[i] for i in range(len(scores))]
        f1 = oracle_weighted_f1(true_cls, pred, C + 1)
        if f1 > best:
            best, best_theta = f1, theta
    return best, best_theta


# ---------------------------------------------------------------------------
# auroc


def test_auroc_perfect_ranking():
    assert auroc(scored([0.9, 0.1], [1, 0])) == 1.0


def test_auroc_all_ties_is_half():
    assert auroc(scored([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0])) == 0.5


def test_auroc_hand_example():
    # pairs: (0.4 vs 0.1) ok, (0.4 vs 0.8) wrong, (0.9 vs both) ok -> 3/4
    assert auroc(scored([0.1, 0.8, 0.4, 0.9], [0, 0, 1, 1])) == 0.75


def test_auroc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(0)
    for trial in range(120):
        m = int(rng.integers(2, 60))
        if rng.random() < 0.5:
            scores = rng.integers(0, 4, size=m).astype(float)  # tie-heavy
        else:
            scores = rng.standard_normal(m)
        identity = rng.integers(0, 2, size=m)
        if identity.min() == identity.max():
            identity[0] = 1 - identity[0]
        s = scored(scores, identity)
        assert auroc(s) == pairwise_auroc(scores.tolist(), identity.tolist())


def test_auroc_matches_broadcast_oracle_at_scale():
    rng = np.random.default_rng(8)
    for levels in (16, None):
        m = int(rng.integers(4800, 5200))
        scores = (rng.integers(0, levels, size=m) / 4.0 if levels
                  else rng.standard_normal(m))
        identity = (rng.random(m) < 0.4).astype(int)
        pos, neg = scores[identity == 1], scores[identity == 0]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        want = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auroc(scored(scores, identity)) == want


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(50)
    identity = rng.integers(0, 2, size=50)
    identity[:2] = [0, 1]
    base = auroc(scored(scores, identity))
    squashed = 1 / (1 + np.exp(-(scores - scores.mean()) / scores.std()))
    assert auroc(scored(squashed, identity)) == base


def test_auroc_label_flip_complements():
    rng = np.random.default_rng(2)
    scores = rng.permutation(np.arange(30)).astype(float)  # tie-free
    identity = rng.integers(0, 2, size=30)
    identity[:2] = [0, 1]
    a = auroc(scored(scores, identity))
    b = auroc(scored(scores, 1 - identity))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auroc_degenerate_classes_error():
    with pytest.raises(MetricError, match="at least one"):
        auroc(scored([0.1, 0.2], [1, 1]))


# ---------------------------------------------------------------------------
# aupr


def test_aupr_perfect_separation():
    assert aupr(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0


def test_aupr_single_positive_ranked_last():
    m = 8
    scores = np.arange(m, dtype=float)[::-1]  # positive gets the lowest score
    identity = np.zeros(m, dtype=int)
    identity[-1] = 1
    assert aupr(scored(scores, identity)) == pytest.approx(1.0 / m)


def test_aupr_all_ties_equals_prevalence():
    identity = np.array([1, 0, 0, 0, 1])
    s = scored(np.full(5, 0.7), identity)
    assert aupr(s) == pytest.approx(identity.mean())


# ---------------------------------------------------------------------------
# fpr at tpr target


def test_fpr_perfect_separation_is_zero():
    assert fpr_at_tpr(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 0.0


def test_fpr_hand_example():
    s = scored([0.9, 0.8, 0.85, 0.1], [1, 1, 0, 0])
    # TPR hits 0.95 only at theta=0.8; there one negative (0.85) is caught
    assert fpr_at_tpr(s, 0.95) == 0.5


def test_fpr_all_ties_is_one():
    assert fpr_at_tpr(scored([0.5, 0.5, 0.5], [1, 0, 0])) == 1.0


def test_fpr_monotone_in_target():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(100)
    identity = (rng.random(100) < 0.4).astype(int)
    identity[:2] = [0, 1]
    s = scored(scores, identity)
    values = [fpr_at_tpr(s, t) for t in (0.2, 0.5, 0.8, 0.9, 0.95, 1.0)]
    assert values == sorted(values)


def test_fpr_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(60)
    identity = (rng.random(60) < 0.5).astype(int)
    identity[:2] = [0, 1]
    a = fpr_at_tpr(scored(scores, identity))
    b = fpr_at_tpr(scored(np.exp(scores), identity))
    assert a == b


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_one_hot_perfect():
    probs = np.eye(3)
    assert accuracy(probs, np.array([0, 1, 2]), np.ones(3, bool)) == 1.0


def test_accuracy_adversarial_zero():
    probs = np.eye(3)
    assert accuracy(probs, np.array([1, 2, 0]), np.ones(3, bool)) == 0.0


def test_accuracy_two_thirds():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert accuracy(probs, np.array([0, 1, 1]), np.ones(3, bool)) == pytest.approx(2 / 3)


def test_accuracy_tie_breaks_to_lowest_index():
    probs = np.array([[0.5, 0.5]])
    assert accuracy(probs, np.array([0]), np.ones(1, bool)) == 1.0
    assert accuracy(probs, np.array([1]), np.ones(1, bool)) == 0.0


def test_accuracy_empty_mask_errors():
    with pytest.raises(MetricError, match="empty"):
        accuracy(np.eye(2), np.array([0, 1]), np.zeros(2, bool))


# ---------------------------------------------------------------------------
# joint weighted-F1


def test_joint_f1_perfect():
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    s = scored([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1])
    labels = np.array([0, 1, 0, 0])
    f1, theta = joint_f1(probs, s, labels)
    assert f1 == 1.0
    assert theta == 0.8


def test_joint_f1_all_ood_closed_form():
    # at theta = -inf everything is predicted OOD; only the OOD class scores
    identity = np.array([1, 1, 0, 0, 0, 0])
    p = identity.mean()
    want = p * (2 * p / (p + 1))
    probs = np.full((6, 3), 1 / 3)
    s = scored(np.zeros(6), identity)
    labels = np.zeros(6, dtype=int)
    # all-tied scores make -inf and the single threshold equivalent: both
    # predict everything OOD, so the sweep's best is at least the closed form
    f1, _ = joint_f1(probs, s, labels)
    assert f1 >= want - 1e-12
    pred = np.full(6, 3)
    true_cls = np.where(identity == 1, 3, labels)
    assert oracle_weighted_f1(true_cls.tolist(), pred.tolist(), 4) == pytest.approx(want)


def test_joint_f1_six_node_toy_matches_oracle():
    probs = np.array([
        [0.9, 0.05, 0.05],
        [0.1, 0.8, 0.1],
        [0.2, 0.2, 0.6],
        [0.4, 0.3, 0.3],
        [0.3, 0.4, 0.3],
        [0.3, 0.3, 0.4],
    ])
    scores = np.array([0.1, 0.2, 0.9, 0.8, 0.7, 0.3])  # one OOD node inverted
    identity = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([0, 1, 2, 0, 0, 0])
    got = joint_f1(probs, scored(scores, identity), labels)
    want = oracle_joint_f1(probs, scores, labels, identity)
    assert got == want


def test_joint_f1_matches_oracle_randomized():
    rng = np.random.default_rng(5)
    for trial in range(60):
        m = int(rng.integers(3, 40))
        C = int(rng.integers(2, 5))
        probs = rng.random((m, C))
        probs /= probs.sum(axis=1, keepdims=True)
        if rng.random() < 0.5:
            scores = rng.integers(0, 3, size=m).astype(float)
        else:
            scores = rng.standard_normal(m)
        identity = (rng.random(m) < 0.4).astype(int)
        labels = rng.integers(0, C, size=m)
        got = joint_f1(probs, scored(scores, identity), labels)
        want = oracle_joint_f1(probs, scores, labels, identity)
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_joint_f1_matches_oracle_at_scale():
    # m ~ 5000 over 16 score levels: tie blocks of ~300 nodes pin the
    # sorted sweep, and the oracle stays at 18 thresholds
    rng = np.random.default_rng(7)
    for C in (2, 4):
        m = int(rng.integers(4800, 5200))
        probs = rng.random((m, C))
        probs /= probs.sum(axis=1, keepdims=True)
        scores = rng.integers(0, 16, size=m) / 8.0 - 1.0
        identity = (rng.random(m) < 0.35).astype(int)
        labels = rng.integers(0, C, size=m)
        got = joint_f1(probs, scored(scores, identity), labels)
        want = oracle_joint_f1(probs, scores, labels, identity)
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_joint_f1_theta_keeps_the_first_signed_zero():
    # 0.0 and -0.0 form one tie block; set() keeps the first one seen, so
    # theta is read at the block's start, while the ROC threshold column
    # keeps the block's last node
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    labels = np.array([0, 1, 0, 0])
    identity = np.array([0, 0, 1, 1])
    for zeros in ([-0.0, 0.0], [0.0, -0.0]):
        scores = np.array([-1.0, -2.0] + zeros)
        s = scored(scores, identity)
        f1, theta = joint_f1(probs, s, labels)
        want_f1, want_theta = oracle_joint_f1(probs, scores, labels, identity)
        assert (f1, theta) == (want_f1, want_theta) == (1.0, 0.0)
        assert np.signbit(theta) == np.signbit(want_theta) == np.signbit(zeros[0])
        pts = roc_points(s)
        assert pts[1].tolist() == [0.0, 1.0, 0.0]
        assert np.signbit(pts[1, 0]) == np.signbit(zeros[-1])


def test_joint_f1_reads_only_the_evaluation_mask():
    # a NaN score outside the mask is never read; inside, ScoredNodes refuses it
    rng = np.random.default_rng(5)
    m = 40
    probs = rng.random((m, 3))
    labels, identity = rng.integers(0, 3, m), (np.arange(m) % 3 == 0).astype(np.int8)
    scores = rng.standard_normal(m)
    mask = np.arange(m) % 4 != 1
    scores[~mask] = np.nan
    got = joint_f1(probs, ScoredNodes(scores=scores, identity=identity, eval_mask=mask), labels)
    want = oracle_joint_f1(probs[mask], scores[mask], labels[mask], identity[mask])
    assert got == want
    with pytest.raises(MetricError, match="non-finite score"):
        ScoredNodes(scores=scores, identity=identity, eval_mask=np.ones(m, bool))


# ---------------------------------------------------------------------------
# curve exports


def test_roc_endpoints_and_area():
    rng = np.random.default_rng(6)
    scores = np.concatenate([rng.standard_normal(40), rng.integers(0, 3, 20)])
    identity = (rng.random(60) < 0.5).astype(int)
    identity[:2] = [0, 1]
    s = scored(scores, identity)
    pts = roc_points(s)
    assert (pts[0, 1], pts[0, 2]) == (0.0, 0.0)
    assert (pts[-1, 1], pts[-1, 2]) == (1.0, 1.0)
    area = np.trapezoid(pts[:, 1], pts[:, 2])
    assert area == pytest.approx(auroc(s), abs=1e-6)


def test_roc_threshold_is_the_last_of_a_signed_zero_block():
    # one block of 0.0 then -0.0: the ROC row reads its last value, the
    # joint-F1 theta its first
    s = scored([0.0, -0.0, -1.0], [1, 1, 0])
    pts = roc_points(s)
    assert pts[1].tolist() == [0.0, 1.0, 0.0] and np.signbit(pts[1, 0])
    f1, theta = joint_f1(np.eye(2)[[0, 0, 0]], s, np.array([0, 0, 0]))
    assert (f1, theta) == (1.0, 0.0) and not np.signbit(theta)


# ---------------------------------------------------------------------------
# one sort per scored set


def test_the_metrics_of_one_scored_set_sort_once(monkeypatch):
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    rng = np.random.default_rng(9)
    s = scored(rng.integers(0, 5, 50) / 4.0, np.arange(50) % 3 == 0)
    for metric in (auroc, aupr, fpr_at_tpr, roc_points):
        metric(s)
    joint_f1(rng.random((50, 3)), s, rng.integers(0, 3, 50))
    assert len(sorts) == 1


# ---------------------------------------------------------------------------
# detection scores and ScoredNodes plumbing


def test_detection_scores_entropy_closed_forms():
    probs = Tensor([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])
    scores = detection_scores(ModelOutputs(probs=probs))
    assert scores.keys() == {"ent"}
    np.testing.assert_allclose(scores["ent"], [np.log(4), 0.0], atol=1e-12)
    # the uniform row (OOD) outscores the confident row
    assert auroc(scored(scores["ent"], [1, 0])) == 1.0


@pytest.mark.parametrize("arch,heads,tags", [("mlp", 1, {"ent"}), ("gcn", 1, {"ent"}),
                                             ("gat", 2, {"ent"}), ("oodgat", 2, {"ent", "att"})])
def test_detection_scores_by_architecture(arch, heads, tags):
    graph = sbm_generate(SbmSpec(classes=3, nodes_per_class=6, p_intra=0.4, p_inter=0.05,
                                 feature_dim=4, class_mean_separation=2.0,
                                 ood_classes=frozenset({2})), seed=0)
    cfg = ModelConfig(architecture=arch, num_classes=2, heads=heads, hidden_dim=4)
    params = init_params(cfg, graph.num_features, np.random.default_rng(1))
    out = model_forward(cfg, params, graph.features, graph_index(graph))
    scores = detection_scores(out)
    assert scores.keys() == tags
    p = out.probs.values
    np.testing.assert_array_equal(scores["ent"], -(p * np.log(np.maximum(p, 1e-12))).sum(axis=1))
    if "att" in tags:
        np.testing.assert_array_equal(scores["att"], out.att_score)


def test_scored_nodes_validation():
    with pytest.raises(MetricError, match="empty"):
        ScoredNodes(scores=np.ones(2), identity=np.zeros(2), eval_mask=np.zeros(2, bool))
    with pytest.raises(MetricError, match="non-finite"):
        ScoredNodes(scores=np.array([np.nan, 1.0]), identity=np.zeros(2),
                    eval_mask=np.ones(2, bool))
    with pytest.raises(MetricError, match="lengths"):
        ScoredNodes(scores=np.ones(2), identity=np.zeros(3), eval_mask=np.ones(2, bool))
    # non-finite outside the mask is tolerated
    ScoredNodes(scores=np.array([np.inf, 1.0]), identity=np.zeros(2),
                eval_mask=np.array([False, True]))
