"""Correctness checks on an experiment's output tree, computed apart from
the program: only the files it wrote are read, with the standard library
and numpy.

Each check is one (name, passed, detail) triple; a run counts every
check as an attempted operation and every failed check as a failed one.
"""

from __future__ import annotations

import configparser
import csv
import json
from pathlib import Path

AUROC_TOL = 1e-12
TPR_TARGET = 0.95
# "clearly above chance": accuracy beats uniform guessing by this margin,
# and the lead detector's AUROC clears this floor
ACCURACY_MARGIN = 0.25
AUROC_FLOOR = 0.6


def read_report(path) -> tuple[dict, dict]:
    """(run records by run_id, aggregates by condition)."""
    runs, aggregates = {}, {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if obj["kind"] == "run":
            runs[obj["run_id"]] = obj
        elif obj["kind"] == "aggregate":
            aggregates[obj["condition"]] = obj["metrics"]
    return runs, aggregates


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def trapezoid_auroc(fpr, tpr) -> float:
    """Area under the ROC polyline through the given points, in order."""
    area = 0.0
    for i in range(1, len(fpr)):
        area += (fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0
    return area


def fpr_at_tpr(fpr, tpr, target: float = TPR_TARGET) -> float:
    """FPR at the first point, from the strictest threshold down, whose TPR
    reaches the target."""
    for f, t in zip(fpr, tpr):
        if t >= target:
            return f
    raise ValueError("the curve never reaches the TPR target")


def spec_max_steps(spec_path) -> int:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(spec_path, encoding="utf-8")
    return parser.getint("train", "max_steps")


def check_outputs(out_dir, max_steps: int) -> list[tuple[str, bool, str]]:
    """Curve, history and record consistency checks for every run."""
    out = Path(out_dir)
    runs, _ = read_report(out / "report.jsonl")
    results = []
    for run_id, rec in sorted(runs.items()):
        m = rec["metrics"]
        for tag, suffix in (("ent", "roc"), ("att", "att-roc")):
            curve = out / "curves" / f"{run_id}-{suffix}.csv"
            if f"auroc_{tag}" not in m:
                continue
            if not curve.is_file():
                results.append((f"{run_id} {tag} curve", False, f"{curve.name} missing"))
                continue
            rows = read_rows(curve)
            fpr = [r["fpr"] for r in rows]
            tpr = [r["tpr"] for r in rows]
            area = trapezoid_auroc(fpr, tpr)
            diff = abs(area - m[f"auroc_{tag}"])
            results.append((f"{run_id} auroc_{tag}", diff <= AUROC_TOL,
                            f"trapezoid {area!r} vs report {m[f'auroc_{tag}']!r}"))
            f95 = fpr_at_tpr(fpr, tpr)
            results.append((f"{run_id} fpr95_{tag}", f95 == m[f"fpr95_{tag}"],
                            f"curve {f95!r} vs report {m[f'fpr95_{tag}']!r}"))
        hist = read_rows(out / "history" / f"{run_id}.csv")
        results.append((f"{run_id} history rows", len(hist) == max_steps,
                        f"{len(hist)} rows, expected {max_steps}"))
        bad = [int(r["step"]) for r in hist
               if r["composite"] != r["val_accuracy"] + r["val_auroc"]]
        results.append((f"{run_id} history composite", not bad,
                        f"steps with composite != accuracy + auroc: {bad[:5]}"))
        best = max(r["composite"] for r in hist)
        results.append((f"{run_id} best_val_composite", best == m["best_val_composite"],
                        f"history max {best!r} vs report {m['best_val_composite']!r}"))
    return results


def check_method(aggregates: dict, lead: str, auroc_key: str,
                 num_classes: int) -> list[tuple[str, bool, str]]:
    """The lead model classifies and detects clearly better than chance."""
    acc = aggregates[lead]["accuracy"]["mean"]
    auc = aggregates[lead][auroc_key]["mean"]
    floor = 1.0 / num_classes + ACCURACY_MARGIN
    results = [(f"{lead} accuracy above chance", acc >= floor,
                f"{acc:.4f} vs floor {floor:.4f}"),
               (f"{lead} {auroc_key} above chance", auc >= AUROC_FLOOR,
                f"{auc:.4f} vs floor {AUROC_FLOOR}")]
    if lead == "gcn" and "mlp" in aggregates:
        mlp = aggregates["mlp"]["auroc_ent"]["mean"]
        gcn = aggregates["gcn"]["auroc_ent"]["mean"]
        results.append(("gcn entropy auroc above mlp", gcn > mlp,
                        f"gcn {gcn:.4f} vs mlp {mlp:.4f}"))
    return results
