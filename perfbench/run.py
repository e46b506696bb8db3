"""CPU-time benchmark of the oodgat workbench, driven through its public API.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in fresh processes
(perfbench/worker.py) with one BLAS and OpenMP thread and `src` on the
import path, the way `oodgat <command> --workers 1` runs. Inputs come
from `--seed`: the Cora-shaped and 10k-node graphs are generated from it
and written as bundles under perfbench/_work, and it is their runner's
seed base, so the same seed gives the same inputs and the same records.
`sbm-demo` is the committed spec run as the README quick start runs it,
with seed base 0, whatever the seed.

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of a traced run instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and the measurement rules.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import graphgen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 4    # extra set-up-only processes; the measuring one adds a fifth


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Path            # spec file, or a template whose bundle path is `bundle`
    # None for a committed spec, which runs exactly as its CLI command
    # does, with seed base 0; otherwise the bundle drawn from the seed
    generate: Callable[[int], graphgen.GraphData] | None
    lead: str             # condition whose metrics are reported
    auroc: str            # the lead detector's AUROC field


WORKLOADS = {w.name: w for w in (
    Workload("cora-oodgat", BENCH / "specs" / "cora-oodgat.spec",
             graphgen.cora_shaped, "oodgat", "auroc_ent"),
    Workload("sbm-demo", ROOT / "specs" / "sbm-demo.spec", None, "oodgat", "auroc_att"),
    Workload("sbm10k-smoothing", BENCH / "specs" / "sbm10k-smoothing.spec",
             graphgen.sparse_sbm, "gcn", "auroc_ent"),
)}

UNITS = {"setup_s": "s", "experiment_s": "s", "peak_rss_mb": "MB",
         "id_accuracy": "ratio", "ood_auroc": "ratio"}
COUNT_LAYERS = {"engine.tape_nodes", "layers.index_builds", "training.steps"}


class BenchError(Exception):
    pass


def prepare(workload: Workload, seed: int) -> tuple[Path, Path]:
    """(spec file, output directory) for one run; generated bundles are
    drawn afresh from the seed."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload.generate is None:
        spec = workload.spec
    else:
        graphgen.write_bundle(workload.generate(seed), work / "bundle")
        spec = work / workload.spec.name
        shutil.copyfile(workload.spec, spec)
    if not spec.is_file():
        raise BenchError(f"spec file {spec} is missing")
    return spec, work / "out"


def worker(mode: str, workload: Workload, spec: Path, out: Path, seed_base: int,
           seconds: float, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--spec", str(spec),
           "--seed-base", str(seed_base), "--seconds", str(seconds), "--out", str(out),
           "--lead", workload.lead, "--auroc", workload.auroc]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload.name} {mode} process overran the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload.name} {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 deadline: float) -> dict:
    if not (ROOT / "src" / "oodgat" / "__init__.py").is_file():
        raise BenchError(f"no oodgat package under {ROOT / 'src'}")
    spec, out = prepare(workload, seed)
    seed_base = seed if workload.generate else 0
    if traced:
        res = worker("trace", workload, spec, out, seed_base, seconds, deadline)
        metrics = {k: {"value": v, "unit": "count" if k in COUNT_LAYERS else "ms"}
                   for k, v in res["per_layer"].items()}
        print(f"{workload.name} seed={seed}: untraced experiment_s "
              f"{statistics.median(res['plain_cpu']):.3f} s, traced "
              f"{statistics.median(res['traced_cpu']):.3f} s, tracing overhead "
              f"{res['overhead_s']:.3f} s")
    else:
        setups = [worker("setup", workload, spec, out, seed_base, seconds,
                         deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker("measure", workload, spec, out, seed_base, seconds, deadline)
        setups.append(res["setup_s"])
        values = {"setup_s": statistics.median(setups),
                  "experiment_s": statistics.median(res["experiment_cpu"]),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "id_accuracy": res["id_accuracy"],
                  "ood_auroc": res["ood_auroc"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        steal = "n/a" if res["steal_s"] is None else f"{res['steal_s']:.2f} s"
        print(f"{workload.name} seed={seed}: experiment CPU s per call "
              f"{' '.join(f'{c:.3f}' for c in res['experiment_cpu'])}; wall s "
              f"{' '.join(f'{w:.3f}' for w in res['experiment_wall'])}; "
              f"host steal {steal}; set-up CPU s {' '.join(f'{s:.3f}' for s in setups)}")
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {res['attempted']}, failed {len(res['failures'])}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": not res["failures"], "attempted": res["attempted"],
            "failed": len(res["failures"]), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), start + RUN_LIMIT_S * len(names))
    except BenchError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
