"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Criteria 1-3 run on synthetic data and finish in seconds. Criteria 4-9
need the citation-graph bundle: set OODGAT_CORA_DIR or place the bundle
at <repo>/data/cora (edges.tsv, features.csv, labels.tsv). Without it
those tests skip with an explicit environment note and the block-model
companions below them still exercise the same directions end to end.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from oodgat.experiments import (
    gradcheck_battery,
    parse_spec,
    report_to_jsonl,
    run_edge_ablation,
    run_homophily_check,
    run_loss_ablation,
    run_train_eval,
)
from oodgat.metrics import ScoredNodes, auroc, joint_f1

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"

CORA_SKIP = ("environment limitation: citation-graph bundle not available; "
             "set OODGAT_CORA_DIR or place edges.tsv/features.csv/labels.tsv "
             "under <repo>/data/cora to run this criterion")

SBM_COMPANION = """\
[experiment]
name = {name}
splits = 2
seeds_per_split = {seeds}

[dataset]
kind = sbm
classes = 4
nodes_per_class = 50
p_intra = 0.1
p_inter = 0.01
feature_dim = 3
class_mean_separation = 3.0
ood_classes = 3
seed = 7

[model]
architecture = {arch}
heads = {heads}
hidden_dim = 16

[train]
lr = 0.01
weight_decay = 5e-4
dropout_p = {dp}
max_steps = {steps}
patience = {steps}
{loss}
"""


def check(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def mean_of(report, condition: str, metric: str) -> float:
    return report.aggregates[condition][metric]["mean"]


# ---------------------------------------------------------------------------
# citation-graph fixtures (skip without the bundle)


def _cora_dir():
    env = os.environ.get("OODGAT_CORA_DIR")
    if env and (Path(env) / "labels.tsv").is_file():
        return Path(env)
    local = REPO / "data" / "cora"
    if (local / "labels.tsv").is_file():
        return local
    return None


def _cora_spec(name: str, tmp_factory):
    bundle = _cora_dir()
    if bundle is None:
        pytest.skip(CORA_SKIP)
    text = (SPECS / name).read_text(encoding="utf-8")
    text = text.replace("path = ../data/cora", f"path = {bundle.resolve()}")
    path = tmp_factory.mktemp("cora-specs") / name
    path.write_text(text, encoding="utf-8")
    return parse_spec(path)


@pytest.fixture(scope="session")
def cora_oodgat(tmp_path_factory):
    spec = _cora_spec("cora-oodgat.spec", tmp_path_factory)
    started = time.monotonic()
    report = run_train_eval(spec, seed_base=0)
    return report, time.monotonic() - started, spec


@pytest.fixture(scope="session")
def cora_gcn(tmp_path_factory):
    return run_train_eval(_cora_spec("cora-gcn.spec", tmp_path_factory),
                          seed_base=0)


@pytest.fixture(scope="session")
def cora_mlp(tmp_path_factory):
    return run_train_eval(_cora_spec("cora-mlp.spec", tmp_path_factory),
                          seed_base=0)


# ---------------------------------------------------------------------------
# block-model fixtures (always available)


def _sbm_spec(tmp_factory, name="train-eval", arch="oodgat", heads=2,
              dp=0.25, steps=400, seeds=2, loss=True):
    body = SBM_COMPANION.format(
        name=name, seeds=seeds, arch=arch, heads=heads, dp=dp, steps=steps,
        loss=("[loss]\nbeta = 1.0\ngamma = 0.05\nzeta = 0.005\nepsilon = 0.5"
              if loss else ""))
    path = tmp_factory.mktemp("sbm-specs") / f"{name}-{arch}.spec"
    path.write_text(body, encoding="utf-8")
    return parse_spec(path)


@pytest.fixture(scope="session")
def sbm_oodgat(tmp_path_factory):
    spec = _sbm_spec(tmp_path_factory)
    return run_train_eval(spec, seed_base=0), spec


@pytest.fixture(scope="session")
def sbm_gcn(tmp_path_factory):
    spec = _sbm_spec(tmp_path_factory, arch="gcn", heads=1, dp=0.0,
                     steps=200, loss=False)
    return run_train_eval(spec, seed_base=0)


@pytest.fixture(scope="session")
def sbm_mlp(tmp_path_factory):
    spec = _sbm_spec(tmp_path_factory, arch="mlp", heads=1, dp=0.0,
                     steps=200, loss=False)
    return run_train_eval(spec, seed_base=0)


# ---------------------------------------------------------------------------
# criterion 1: gradient checks


def test_criterion_1_gradient_checks():
    started = time.monotonic()
    checks = gradcheck_battery(seed=0)
    elapsed = time.monotonic() - started
    failures = [name for name, rep in checks if not rep.passed]
    tols = {rep.tol for _, rep in checks}
    ok = (not failures and elapsed < 60.0
          and tols == {1e-6, 1e-4}
          and dict(checks)["full_oodgat_objective"].tol == 1e-4)
    check(1, ok, f"{len(checks) - len(failures)}/{len(checks)} gradient checks "
                 f"within tolerance (smooth 1e-06, kinked/full 1e-04) "
                 f"in {elapsed:.1f}s; failures={failures}")


# ---------------------------------------------------------------------------
# criterion 2: identity homophily bound


def test_criterion_2_homophily_bound():
    started = time.monotonic()
    stats = run_homophily_check(count=1000, seed_base=0)
    elapsed = time.monotonic() - started
    ok = stats["violations"] == 0 and stats["count"] >= 1000 and elapsed < 60.0
    check(2, ok, f"grouped-label homophily >= raw homophily on "
                 f"{stats['count']} random graphs, violations="
                 f"{stats['violations']}, min_margin={stats['min_margin']:.6f}, "
                 f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles


def _pairwise_auroc(scores, identity):
    pos = scores[identity == 1]
    neg = scores[identity == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (float(wins) + 0.5 * float(ties)) / (len(pos) * len(neg))


def _oracle_weighted_f1(true_cls, pred_cls, num_classes):
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


def _oracle_joint_f1(probs, scores, labels, identity):
    C = probs.shape[1]
    true_cls = [C if identity[i] else int(labels[i]) for i in range(len(scores))]
    pred_id = [int(np.argmax(probs[i])) for i in range(len(scores))]
    best, best_theta = -1.0, np.inf
    for theta in [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]:
        pred = [C if scores[i] >= theta else pred_id[i] for i in range(len(scores))]
        f1 = _oracle_weighted_f1(true_cls, pred, C + 1)
        if f1 > best:
            best, best_theta = f1, theta
    return best, best_theta


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(12345)
    started = time.monotonic()
    for case in range(500):
        m = int(rng.integers(5, 201))
        C = int(rng.integers(2, 6))
        if case % 2:
            scores = rng.integers(0, 4, m) / 4.0  # tie-heavy: four levels
        else:
            scores = rng.standard_normal(m)
        identity = (rng.random(m) < 0.4).astype(np.int8)
        identity[0], identity[1] = 0, 1  # keep both classes populated
        probs = rng.random((m, C))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, C, m)
        mask = np.ones(m, dtype=bool)

        s = ScoredNodes(scores=scores.astype(float), identity=identity,
                        eval_mask=mask)
        assert auroc(s) == _pairwise_auroc(scores, identity), f"case {case}"
        got = joint_f1(probs, s, labels)
        want = _oracle_joint_f1(probs, scores, labels, identity)
        assert got[0] == want[0] and got[1] == want[1], f"case {case}"
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    check(3, ok, f"auroc and joint-F1 equal brute-force oracles exactly on "
                 f"500 instances (m<=200, tie-heavy included) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: citation-graph reproduction


def test_criterion_4_cora_reproduction(cora_oodgat):
    report, elapsed, _ = cora_oodgat
    acc = mean_of(report, "oodgat", "accuracy")
    att = mean_of(report, "oodgat", "auroc_att")
    ok = acc >= 0.895 and att >= 0.910 and len(report.runs) == 9 and elapsed < 900
    check(4, ok, f"9-run mean accuracy={acc:.4f} (>=0.895), "
                 f"attention AUROC={att:.4f} (>=0.910), {elapsed:.0f}s (<900)")


def test_criterion_4_sbm_companion(sbm_oodgat):
    report, _ = sbm_oodgat
    acc = mean_of(report, "oodgat", "accuracy")
    att = mean_of(report, "oodgat", "auroc_att")
    ok = acc >= 0.95 and att >= 0.90
    check(4, ok, f"[block-model companion] accuracy={acc:.4f} (>=0.95), "
                 f"attention AUROC={att:.4f} (>=0.90)")


# ---------------------------------------------------------------------------
# criterion 5: detector ordering against the convolutional baseline


def test_criterion_5_detector_ordering(cora_oodgat, cora_gcn):
    report, _, _ = cora_oodgat
    att = mean_of(report, "oodgat", "auroc_att")
    ent = mean_of(cora_gcn, "gcn", "auroc_ent")
    ok = att - ent >= 0.02
    check(5, ok, f"attention AUROC {att:.4f} exceeds baseline entropy AUROC "
                 f"{ent:.4f} by {att - ent:+.4f} (>= +0.02)")


def test_criterion_5_sbm_companion(sbm_oodgat, sbm_gcn):
    report, _ = sbm_oodgat
    att = mean_of(report, "oodgat", "auroc_att")
    ent = mean_of(sbm_gcn, "gcn", "auroc_ent")
    ok = att - ent >= 0.02
    check(5, ok, f"[block-model companion] attention AUROC {att:.4f} vs "
                 f"baseline entropy AUROC {ent:.4f} ({att - ent:+.4f} >= +0.02)")


# ---------------------------------------------------------------------------
# criterion 6: neighborhood smoothing beats the structure-free baseline


def test_criterion_6_smoothing_gap(cora_gcn, cora_mlp):
    gcn = mean_of(cora_gcn, "gcn", "auroc_ent")
    mlp = mean_of(cora_mlp, "mlp", "auroc_ent")
    ok = gcn - mlp >= 0.05
    check(6, ok, f"entropy AUROC gcn={gcn:.4f} vs mlp={mlp:.4f} "
                 f"({gcn - mlp:+.4f} >= +0.05)")


def test_criterion_6_sbm_companion(sbm_gcn, sbm_mlp):
    gcn = mean_of(sbm_gcn, "gcn", "auroc_ent")
    mlp = mean_of(sbm_mlp, "mlp", "auroc_ent")
    ok = gcn - mlp >= 0.05
    check(6, ok, f"[block-model companion] entropy AUROC gcn={gcn:.4f} vs "
                 f"mlp={mlp:.4f} ({gcn - mlp:+.4f} >= +0.05)")


# ---------------------------------------------------------------------------
# criterion 7: edge-subset directions


def test_criterion_7_edge_ablation(tmp_path_factory):
    spec = _cora_spec("cora-edge-ablation.spec", tmp_path_factory)
    report = run_edge_ablation(spec, seed_base=0)
    acc_all = mean_of(report, "inter-0", "accuracy")
    acc_removed = mean_of(report, "inter-1", "accuracy")
    ent_intra = mean_of(report, "inter-1", "auroc_ent")
    ent_ood_only = mean_of(report, "intra_ood-only", "auroc_ent")
    ok = acc_removed >= acc_all and ent_ood_only < ent_intra
    check(7, ok, f"accuracy all-edges={acc_all:.4f} <= inter-removed="
                 f"{acc_removed:.4f}; entropy AUROC drops from "
                 f"{ent_intra:.4f} (inter-removed) to {ent_ood_only:.4f} "
                 f"(intra_id also removed)")


# ---------------------------------------------------------------------------
# criterion 8: regularizer ablation direction


def test_criterion_8_loss_ablation(tmp_path_factory):
    spec = _cora_spec("cora-ablate.spec", tmp_path_factory)
    report = run_loss_ablation(spec, seed_base=0)
    ce = mean_of(report, "ce", "auroc_att")
    con = mean_of(report, "ce+con", "auroc_att")
    ok = con - ce >= 0.10
    check(8, ok, f"attention AUROC ce={ce:.4f} vs ce+con={con:.4f} "
                 f"({con - ce:+.4f} >= +0.10)")


def test_criterion_8_sbm_companion(tmp_path_factory):
    spec = _sbm_spec(tmp_path_factory, name="ablate-losses", seeds=1)
    report = run_loss_ablation(spec, seed_base=0)
    ce = mean_of(report, "ce", "auroc_att")
    con = mean_of(report, "ce+con", "auroc_att")
    ok = con - ce >= 0.10
    check(8, ok, f"[block-model companion] attention AUROC ce={ce:.4f} vs "
                 f"ce+con={con:.4f} ({con - ce:+.4f} >= +0.10)")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(cora_oodgat):
    report, _, spec = cora_oodgat
    again = run_train_eval(spec, seed_base=0)
    ok = report_to_jsonl(again) == report_to_jsonl(report)
    check(9, ok, "re-running the reproduction spec gives byte-identical "
                 "run records")


def test_criterion_9_sbm_companion(sbm_oodgat):
    report, spec = sbm_oodgat
    again = run_train_eval(spec, seed_base=0)
    ok = report_to_jsonl(again) == report_to_jsonl(report)
    check(9, ok, "[block-model companion] re-running the demo spec gives "
                 "byte-identical run records")
