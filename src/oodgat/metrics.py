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
    # ranks a+1 .. b share the exact average (a + 1 + b) / 2
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
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
    return np.vstack([[np.inf, 0.0, 0.0],
                      np.column_stack([thresholds, tp / n_pos, fp / n_neg])])


def accuracy(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of argmax predictions matching labels on the masked nodes.

    Argmax ties break toward the lowest class index.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise MetricError("accuracy mask is empty")
    pred = np.argmax(probs[mask], axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())


def joint_f1(probs: np.ndarray, s: ScoredNodes, labels: np.ndarray) -> tuple[float, float]:
    """Best weighted-F1 over the (C+1)-way joint task and its threshold,
    on the nodes of `s.eval_mask`.

    For threshold theta a node is predicted OOD (class C) when its score
    is >= theta, otherwise argmax over the C ID classes. True class is C
    for OOD nodes and the ID label otherwise. Candidates are +inf, every
    unique observed score, and -inf; ties in F1 keep the largest theta.

    One stable descending sort gives every candidate as k, the number of
    leading nodes predicted OOD; per-class counts at each k come from
    integer prefix sums, and the F1 arithmetic is the per-threshold
    formula applied to all candidates at once, in the same class order.
    """
    scores, ident = s.masked()
    mask = s.eval_mask
    num_id_classes = probs.shape[1]
    pred_id = np.argmax(probs[mask], axis=1)
    true_cls = np.where(ident, num_id_classes, np.asarray(labels)[mask])

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    pred_sorted, true_sorted = pred_id[order], true_cls[order]
    total = len(scores)
    starts = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    # theta = +inf flags no node, a unique score flags its tie block and
    # all above it, and -inf flags every node
    k = np.concatenate([[0], starts, [total, total]])
    # set() keeps the first of 0.0 and -0.0 it meets, so a tie block's
    # theta is its first node (the stable sort keeps mask order in a block)
    block_first = np.concatenate([[0], starts])
    thetas = np.concatenate([[np.inf], sorted_scores[block_first], [-np.inf]])

    def flagged(hit: np.ndarray) -> np.ndarray:
        """Count of hits among the first k sorted nodes, per candidate."""
        return np.concatenate([[0], np.cumsum(hit)])[k]

    f1_sum = np.zeros(len(k))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(num_id_classes + 1):
            support = int((true_cls == c).sum())
            if support == 0:
                continue  # zero true support carries zero weight
            if c == num_id_classes:  # pred_id never names the OOD class
                tp, predicted = flagged(true_sorted == c), k
            else:
                # ID predictions are the nodes after the first k
                said = pred_sorted == c
                hit = said & (true_sorted == c)
                tp = hit.sum() - flagged(hit)
                predicted = said.sum() - flagged(said)
            precision = tp / predicted
            recall = tp / support
            f1 = 2 * precision * recall / (precision + recall)
            f1_sum += np.where(tp > 0, support * f1, 0.0)
    f1_all = f1_sum / total
    best = int(np.argmax(f1_all))  # first maximum = largest theta
    return float(f1_all[best]), float(thetas[best])
