"""Detection and classification metrics.

OOD nodes are the positive class throughout: higher score = more OOD.
Every rank and threshold metric reads the one `Sweep` of a `ScoredNodes`,
its only sort: the masked scores in stable descending order, cut into
blocks of equal scores, with the OOD and ID counts flagged at each
threshold (none, then each block and all above it). Those counts are the
ROC points. AUROC counts, per block, its ID nodes times the OOD nodes
above it plus half those in it, which is the trapezoid area under the
points. That count is an integer or a half-integer, so it is exact and
agrees bit for bit with the O(m^2) pairwise count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import row_entropy
from .errors import MetricError


class Sweep(NamedTuple):
    """The masked scores in stable descending order, in tie blocks."""

    order: np.ndarray   # positions in the masked scores, highest first
    scores: np.ndarray  # the masked scores in that order
    starts: np.ndarray  # first sorted position of each block of equal scores
    tp: np.ndarray      # OOD nodes flagged: 0, then at or above each block
    fp: np.ndarray      # ID nodes flagged: 0, then at or above each block


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

    @cached_property
    def sweep(self) -> Sweep:
        scores, ident = self.scores[self.eval_mask], self.identity[self.eval_mask].astype(bool)
        # a stable sort keeps mask order inside a tie block, and 0.0 and
        # -0.0 compare equal, so they share a block
        order = np.argsort(-scores, kind="stable")
        ranked = scores[order]
        starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
        flagged = np.append(starts, len(ranked))  # 0, then each block's end
        tp = np.concatenate([[0], np.cumsum(ident[order])])[flagged]
        return Sweep(order, ranked, starts, tp, flagged - tp)


def detection_scores(outputs) -> dict[str, np.ndarray]:
    """The per-node OOD scores of a model's outputs, by tag.

    "ent" is the raw entropy of the predicted class distribution (rank
    metrics are monotone-invariant, so it is not standardized). "att" is
    the mean of the per-layer binary OOD scores, present only for models
    that produce them.
    """
    scores = {"ent": row_entropy(outputs.probs).values[:, 0]}
    if outputs.att_score is not None:
        scores["att"] = outputs.att_score
    return scores


def _swept(s: ScoredNodes, missing: str, need_id: bool = True) -> tuple[Sweep, int, int]:
    """The sweep with its OOD and ID totals; `missing` when a needed class is absent."""
    sw = s.sweep
    n_pos, n_neg = int(sw.tp[-1]), int(sw.fp[-1])
    if n_pos == 0 or (need_id and n_neg == 0):
        raise MetricError(missing)
    return sw, n_pos, n_neg


def auroc(s: ScoredNodes) -> float:
    """Probability a random OOD node outscores a random ID node, ties 1/2."""
    sw, n_pos, n_neg = _swept(s, "rank metrics need at least one OOD and one ID node in the mask")
    # twice the count: ID nodes in a block x (2 x OOD nodes above it + OOD nodes in it)
    twice = np.dot(sw.fp[1:] - sw.fp[:-1], sw.tp[1:] + sw.tp[:-1])
    return float(twice / 2 / (n_pos * n_neg))


def aupr(s: ScoredNodes) -> float:
    """Area under precision-recall, step-interpolated (average precision)."""
    sw, n_pos, _ = _swept(s, "AUPR needs at least one OOD node in the mask", need_id=False)
    recall = sw.tp / n_pos
    precision = sw.tp[1:] / (sw.tp[1:] + sw.fp[1:])
    return float(((recall[1:] - recall[:-1]) * precision).sum())


def fpr_at_tpr(s: ScoredNodes, tpr_target: float = 0.95) -> float:
    """FPR at the largest threshold whose TPR reaches the target."""
    sw, n_pos, n_neg = _swept(s, "FPR@TPR needs both classes in the mask")
    hit = np.flatnonzero(sw.tp[1:] / n_pos >= tpr_target)
    if len(hit) == 0:  # unreachable: the lowest threshold always has TPR 1
        raise MetricError("TPR target unreachable")
    return float(sw.fp[1 + hit[0]] / n_neg)


def roc_points(s: ScoredNodes) -> np.ndarray:
    """ROC sweep as rows (threshold, tpr, fpr), from (0,0) to (1,1); a tie
    block's threshold is its last score in the sweep."""
    sw, n_pos, n_neg = _swept(s, "ROC needs both classes in the mask")
    last = sw.scores[(sw.tp + sw.fp)[1:] - 1]
    return np.column_stack([np.append(np.inf, last), sw.tp / n_pos, sw.fp / n_neg])


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

    The sweep gives every candidate as k, the number of leading nodes
    predicted OOD; per-class counts at each k come from integer prefix
    sums, and the F1 arithmetic is the per-threshold formula applied to
    all candidates at once, in the same class order.
    """
    sw = s.sweep
    mask = s.eval_mask
    num_id_classes = probs.shape[1]
    pred_id = np.argmax(probs[mask], axis=1)
    ident = s.identity[mask].astype(bool)
    true_cls = np.where(ident, num_id_classes, np.asarray(labels)[mask])

    pred_sorted, true_sorted = pred_id[sw.order], true_cls[sw.order]
    total = len(sw.order)
    # theta = +inf flags no node, a unique score flags its tie block and
    # all above it, and -inf flags every node
    k = np.concatenate([sw.starts, [total, total]])
    # set() keeps the first of 0.0 and -0.0 it meets, so a tie block's
    # theta is its first node (the sweep keeps mask order in a block)
    thetas = np.concatenate([[np.inf], sw.scores[sw.starts], [-np.inf]])

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
