"""The trapezoid AUROC and curve FPR@95 helpers against brute force."""

import numpy as np
import pytest

import checks


def roc_curve(scores, positive):
    """(fpr, tpr) from the strictest threshold down, starting at (0, 0)."""
    fpr, tpr = [0.0], [0.0]
    for th in sorted(set(scores), reverse=True):
        hit = [s >= th for s in scores]
        tpr.append(sum(h and p for h, p in zip(hit, positive)) / sum(positive))
        fpr.append(sum(h and not p for h, p in zip(hit, positive))
                   / (len(positive) - sum(positive)))
    return fpr, tpr


def pairwise_auroc(scores, positive):
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def cases():
    rng = np.random.default_rng(0)
    yield [0.5, 0.5, 0.5, 0.5], [True, False, True, False]      # all tied
    yield [1.0, 2.0, 3.0], [False, False, True]                   # perfect
    yield [1.0, 2.0, 3.0], [True, False, False]                   # reversed
    for _ in range(200):
        m = int(rng.integers(2, 30))
        scores = rng.integers(0, 4, m).astype(float).tolist()     # heavy ties
        positive = (rng.random(m) < 0.4).tolist()
        if 0 < sum(positive) < m:
            yield scores, positive


@pytest.mark.parametrize("scores,positive", list(cases()))
def test_trapezoid_auroc_matches_pairwise_count(scores, positive):
    fpr, tpr = roc_curve(scores, positive)
    assert abs(checks.trapezoid_auroc(fpr, tpr) - pairwise_auroc(scores, positive)) <= 1e-12


@pytest.mark.parametrize("scores,positive", list(cases())[:50])
def test_fpr_at_tpr_takes_the_strictest_threshold_reaching_the_target(scores, positive):
    fpr, tpr = roc_curve(scores, positive)
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    for th in sorted(set(scores), reverse=True):
        if sum(s >= th for s in pos) / len(pos) >= 0.95:
            expected = sum(s >= th for s in neg) / len(neg)
            break
    assert checks.fpr_at_tpr(fpr, tpr) == expected
