"""Command-line entry point.

Every failure exits nonzero after printing a single machine-parsable
line to stderr of the form `ERROR <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, OodgatError
from .experiments import (
    RUNNERS,
    best_grid_condition,
    gradcheck_battery,
    parse_spec,
    run_gen_sbm,
    run_homophily_check,
    report_text_table,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodgat",
        description="Graph learning with out-of-distribution nodes: "
                    "training, ablations, and detection metrics.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", type=Path, help="INI experiment spec file")
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel training processes, at most one per run "
                             "(default 1)")
    common.add_argument("--seed-base", type=int, default=0,
                        help="base of the split/run seeding scheme, >= 0 (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("train-eval", "train the configured model and report metrics"),
            ("edge-ablation", "classifier under edge-subset conditions"),
            ("smoothing-roc", "MLP vs GCN entropy-score ROC curves"),
            ("ablate-losses", "regularizer on/off rows"),
            ("gridsearch", "rank hyperparameter grid cells"),
            ("gen-sbm", "write a block-model graph bundle"),
            ("gradcheck", "gradient checks for all operations"),
            ("homophily-check", "identity vs node homophily property")):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"--{name} is required for {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except OodgatError as exc:
        msg = " ".join(str(exc).split())
        print(f"ERROR {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.seed_base < 0:
        raise ConfigError(f"--seed-base must be >= 0, got {args.seed_base}")
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")
    if args.command == "gradcheck":
        failed = 0
        for name, report in gradcheck_battery(seed=args.seed_base):
            status = "PASS" if report.passed else "FAIL"
            failed += not report.passed
            print(f"{status} {name} max_rel_err={report.worst:.3e} tol={report.tol:.0e}")
        print(f"gradcheck: {'PASS' if not failed else 'FAIL'} ({failed} failures)")
        return 1 if failed else 0

    if args.command == "homophily-check":
        stats = run_homophily_check(seed_base=args.seed_base)
        ok = stats["violations"] == 0
        print(f"homophily-check: {'PASS' if ok else 'FAIL'} "
              f"count={stats['count']} violations={stats['violations']} "
              f"min_margin={stats['min_margin']:.6f}")
        return 0 if ok else 1

    _need(args, "spec", "out")
    # --out, or the nearest path above it that exists, must be a directory
    existing = next((p for p in (args.out, *args.out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"--out {args.out}: {existing} exists and is not a directory")
    spec = parse_spec(args.spec, expected_name=args.command)

    if args.command == "gen-sbm":
        meta = run_gen_sbm(spec, args.out)
        print(f"gen-sbm: wrote {meta['nodes']} nodes / {meta['edges']} edges "
              f"to {args.out} (node_homophily={meta['node_homophily']:.4f})")
        return 0

    report = RUNNERS[args.command](spec, seed_base=args.seed_base,
                                   workers=args.workers, out_dir=args.out)
    sys.stdout.write(report_text_table(report))
    if args.command == "gridsearch":
        cond, score = best_grid_condition(report)
        print(f"best cell: {cond} (mean validation composite {score:.4f})")
    print(f"wrote {len(report.runs)} run records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
