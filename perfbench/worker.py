"""One benchmark process: set up like the CLI, then run the experiment.

run.py starts it in a fresh interpreter with one BLAS/OpenMP thread:

    python3 perfbench/worker.py --mode {setup,measure,trace} --spec FILE
        --seed-base N --seconds S --out DIR --lead COND --auroc KEY

All times are process CPU seconds (`time.process_time`), which leave out
the CPU the host steals from this machine. Set-up time is the process's
CPU total at the moment the spec is parsed and its graph is ready, so it
covers interpreter start, imports, spec parsing and the bundle load or
graph generation. The last line of standard output is a JSON object.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from oodgat import experiments, metrics, training

import checks
import tracing

RUNNERS = {"train-eval": experiments.run_train_eval,
           "smoothing-roc": experiments.run_smoothing_roc}
# the machine's speed drifts by up to a third over seconds to minutes;
# the median of at least three calls sets aside one call in an odd phase
MIN_REPS = 3


def steal_seconds() -> float | None:
    """Machine-wide CPU time stolen by the host so far, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Repeats:
    """Repeats the identical runner call and checks every repeat."""

    def __init__(self, args, spec):
        self.args, self.spec = args, spec
        self.runner = RUNNERS[spec.name]
        self.max_steps = checks.spec_max_steps(args.spec)
        self.reference: bytes | None = None
        self.aggregates: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_once(self, label: str) -> tuple[float, float]:
        """One runner call into a fresh directory; (CPU s, wall s)."""
        out = Path(self.args.out) / label
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        c0, w0 = time.process_time(), time.perf_counter()
        report = self.runner(self.spec, seed_base=self.args.seed_base, workers=1,
                             out_dir=out)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        self.attempted += len(report.runs)
        self._check(out)
        return cpu, wall

    def _record(self, results) -> None:
        self.attempted += len(results)
        self.failures += [f"{name}: {detail}" for name, ok, detail in results if not ok]

    def _check(self, out: Path) -> None:
        text = (out / "report.jsonl").read_bytes()
        if self.reference is None:
            self.reference = text
            _, self.aggregates = checks.read_report(out / "report.jsonl")
        self._record(checks.check_method(self.aggregates, self.args.lead,
                                         self.args.auroc, self.spec.model.num_classes))
        self._record([("report.jsonl identical to the first call's",
                       text == self.reference, str(out))])
        self._record(checks.check_outputs(out, self.max_steps))

    def result(self) -> dict:
        agg = self.aggregates[self.args.lead]
        return {"id_accuracy": agg["accuracy"]["mean"],
                "ood_auroc": agg[self.args.auroc]["mean"],
                "attempted": self.attempted, "failures": self.failures}


def measure(args, spec) -> dict:
    """Repeat the runner call until the next one would overrun the time
    budget, but at least MIN_REPS times."""
    repeats = Repeats(args, spec)
    cpu, wall = [], []
    steal0 = steal_seconds()
    start = time.perf_counter()
    while True:
        c, w = repeats.run_once("measure")
        cpu.append(c)
        wall.append(w)
        if len(cpu) >= MIN_REPS and time.perf_counter() - start + w > args.seconds:
            break
    steal1 = steal_seconds()
    return {"experiment_cpu": cpu, "experiment_wall": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "steal_s": None if steal0 is None else steal1 - steal0,
            **repeats.result()}


def trace(args, spec, tracer) -> dict:
    """Alternate untraced and traced runner calls. The per-layer figures
    come from the traced calls; every call's report must match the first."""
    repeats = Repeats(args, spec)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        c, w = repeats.run_once("plain")
        plain.append(c)
        tracer.install()
        try:
            c, w2 = repeats.run_once("traced")
        finally:
            tracer.uninstall()
        traced.append(c)
        if time.perf_counter() - start + w + w2 > args.seconds:
            break
    return {"per_layer": tracer.per_layer(traced),
            "plain_cpu": plain, "traced_cpu": traced,
            "overhead_s": statistics.median(traced) - statistics.median(plain),
            **repeats.result()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out")
    p.add_argument("--lead")
    p.add_argument("--auroc")
    args = p.parse_args(argv)

    tracer = tracing.Tracer({"experiments": experiments, "training": training,
                             "metrics": metrics})
    if args.mode == "trace":
        tracer.install()   # the bundle load happens inside parse_spec
    try:
        spec = experiments.parse_spec(args.spec)
    finally:
        tracer.uninstall()
    result = {"setup_s": time.process_time()}
    if args.mode == "measure":
        result.update(measure(args, spec))
    elif args.mode == "trace":
        result.update(trace(args, spec, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
