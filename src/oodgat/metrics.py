"""Detection and classification metrics.

OOD nodes are the positive class throughout: higher score = more OOD.
AUROC uses the Mann-Whitney tie-averaged-rank formulation, which agrees
with the O(m^2) pairwise count bit for bit (both numerators are exact
multiples of 0.5 and the final division is shared).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError

_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class ScoredNodes:
    """Per-node OOD scores with identity flags and an evaluation mask."""

    scores: np.ndarray
    identity: np.ndarray
    eval_mask: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        ident = np.asarray(self.identity)
        mask = np.asarray(self.eval_mask, dtype=bool)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "eval_mask", mask)
        if not (len(s) == len(ident) == len(mask)):
            raise MetricError("scores, identity, and mask lengths differ")
        if not mask.any():
            raise MetricError("evaluation mask is empty")
        if not np.all(np.isfinite(s[mask])):
            raise MetricError("non-finite score inside the evaluation mask")

    def masked(self) -> tuple[np.ndarray, np.ndarray]:
        return self.scores[self.eval_mask], self.identity[self.eval_mask].astype(bool)


def entropy_of_probs(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy per row, natural log, 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64)
    return -(p * np.log(np.maximum(p, _LOG_CLAMP))).sum(axis=1)


def ood_scores(outputs, kind: str, identity, eval_mask) -> ScoredNodes:
    """Build ScoredNodes from model outputs.

    kind "entropy" scores nodes by the raw entropy of the predicted class
    distribution (rank metrics are monotone-invariant, so no
    standardization is applied). kind "attention" uses the mean of the
    per-layer binary OOD scores and exists only for models that produce
    them.
    """
    probs = outputs.probs
    if hasattr(probs, "values"):  # tape tensor
        probs = probs.values
    if kind == "entropy":
        scores = entropy_of_probs(probs)
    elif kind == "attention":
        if outputs.att_score is None:
            raise MetricError("attention scores requested from a model that has none")
        scores = np.asarray(outputs.att_score, dtype=np.float64)
    else:
        raise MetricError(f"unknown score kind {kind!r}")
    return ScoredNodes(scores=scores, identity=identity, eval_mask=eval_mask)


def _split_pos_neg(s: ScoredNodes) -> tuple[np.ndarray, np.ndarray]:
    scores, ident = s.masked()
    pos = scores[ident]
    neg = scores[~ident]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("rank metrics need at least one OOD and one ID node in the mask")
    return pos, neg


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average rank of their block."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(values)]])
    ranks = np.empty(len(values))
    for a, b in zip(starts, ends):
        # ranks a+1 .. b share the exact average (a + 1 + b) / 2
        ranks[order[a:b]] = (a + 1 + b) / 2.0
    return ranks


def auroc(s: ScoredNodes) -> float:
    """Probability a random OOD node outscores a random ID node, ties 1/2."""
    scores, ident = s.masked()
    pos, neg = _split_pos_neg(s)
    ranks = _tie_averaged_ranks(scores)
    n_pos, n_neg = len(pos), len(neg)
    rank_sum = ranks[ident].sum()
    numerator = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(numerator / (n_pos * n_neg))


def _threshold_sweep(s: ScoredNodes):
    """Descending unique thresholds with cumulative TP/FP counts at >= theta."""
    scores, ident = s.masked()
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = ident[order].astype(np.int64)
    # group ties: last index of each equal-score block
    block_end = np.flatnonzero(np.diff(sorted_scores) != 0)
    block_end = np.concatenate([block_end, [len(sorted_scores) - 1]])
    tp = np.cumsum(sorted_pos)[block_end]
    fp = (block_end + 1) - tp
    thresholds = sorted_scores[block_end]
    return thresholds, tp, fp, int(ident.sum()), int((~ident).sum())


def aupr(s: ScoredNodes) -> float:
    """Area under precision-recall, step-interpolated (average precision)."""
    thresholds, tp, fp, n_pos, _ = _threshold_sweep(s)
    if n_pos == 0:
        raise MetricError("AUPR needs at least one OOD node in the mask")
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def fpr_at_tpr(s: ScoredNodes, tpr_target: float = 0.95) -> float:
    """FPR at the largest threshold whose TPR reaches the target."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_sweep(s)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("FPR@TPR needs both classes in the mask")
    tpr = tp / n_pos
    hit = np.flatnonzero(tpr >= tpr_target)
    if len(hit) == 0:  # unreachable: the lowest threshold always has TPR 1
        raise MetricError("TPR target unreachable")
    return float(fp[hit[0]] / n_neg)


def roc_points(s: ScoredNodes) -> np.ndarray:
    """ROC sweep as rows (threshold, tpr, fpr), from (0,0) to (1,1)."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_sweep(s)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC needs both classes in the mask")
    rows = [(np.inf, 0.0, 0.0)]
    for th, t, f in zip(thresholds, tp, fp):
        rows.append((float(th), t / n_pos, f / n_neg))
    return np.array(rows)


def accuracy(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of argmax predictions matching labels on the masked nodes.

    Argmax ties break toward the lowest class index.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise MetricError("accuracy mask is empty")
    pred = np.argmax(probs[mask], axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())


def _weighted_f1(true_cls: np.ndarray, pred_cls: np.ndarray, num_classes: int) -> float:
    total = len(true_cls)
    f1_sum = 0.0
    for c in range(num_classes):
        support = int((true_cls == c).sum())
        if support == 0:
            continue  # zero true support carries zero weight
        tp = int(((true_cls == c) & (pred_cls == c)).sum())
        predicted = int((pred_cls == c).sum())
        if tp == 0:
            continue
        precision = tp / predicted
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall)
        f1_sum += support * f1
    return f1_sum / total


def joint_f1(probs: np.ndarray, s: ScoredNodes, labels: np.ndarray,
             mask: np.ndarray) -> tuple[float, float]:
    """Best weighted-F1 over the (C+1)-way joint task and its threshold.

    For threshold theta a node is predicted OOD (class C) when its score
    is >= theta, otherwise argmax over the C ID classes. True class is C
    for OOD nodes and the ID label otherwise. Candidates are +inf, every
    unique observed score, and -inf; ties in F1 keep the largest theta.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise MetricError("joint_f1 mask is empty")
    scores = s.scores[mask]
    ident = s.identity[mask].astype(bool)
    num_id_classes = probs.shape[1]
    pred_id = np.argmax(probs[mask], axis=1)
    true_cls = np.where(ident, num_id_classes, np.asarray(labels)[mask])

    best_f1, best_theta = -1.0, np.inf
    candidates = [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]
    for theta in candidates:
        pred_cls = np.where(scores >= theta, num_id_classes, pred_id)
        f1 = _weighted_f1(true_cls, pred_cls, num_id_classes + 1)
        if f1 > best_f1:
            best_f1, best_theta = f1, theta
    return float(best_f1), float(best_theta)
