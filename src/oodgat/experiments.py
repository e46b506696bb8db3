"""Experiment harness: spec files, named runners, seeding, and exports.

A spec file is plain INI text. The [dataset] section names either a
bundle directory or a block-model recipe; [model], [train] and [loss]
override defaults, and a gridsearch spec's [grid] lists the candidates
of each tuned key. Every runner expands into independent
(condition, split, seed) tasks and executes them sequentially or in a
process pool. Each run writes its own history and curve files as it
finishes; the records stream back in task order into a RunReport, whose
files are written last and whose per-run records are byte-stable across
re-runs.
"""

from __future__ import annotations

import configparser
import csv
import ctypes
import functools
import io
import itertools
import json
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, engine, metrics
from .engine import Tensor, grad_check
from .errors import ConfigError, OodgatError, TrainingAbort
from .graphs import (
    Graph,
    SbmSpec,
    _write_atomic,
    er_generate,
    filter_edges,
    identity_homophily,
    load_graph_bundle,
    make_graph,
    make_splits,
    node_homophily,
    relabel_for_training,
    save_graph_bundle,
    sbm_generate,
    split_classes,
)
from .layers import ModelConfig, graph_index, init_params, model_forward
from .losses import LossWeights, compute_objective
from .training import TrainConfig, train

# seeding scheme: one stream per split, one per (split, seed) pair
SPLIT_SEED_STRIDE = 7919
TRAIN_SEED_STRIDE = 104729

HISTORY_COLUMNS = ("step", "ce", "con", "ent", "dis", "decay", "total",
                   "val_accuracy", "val_auroc", "composite")

# the seven regularizer on/off rows of the loss ablation, in report order
ABLATION_ROWS = (
    ("ce", 0, 0, 0),
    ("ce+con", 1, 0, 0),
    ("ce+ent", 0, 1, 0),
    ("ce+dis", 0, 0, 1),
    ("ce+con+ent", 1, 1, 0),
    ("ce+con+dis", 1, 0, 1),
    ("full", 1, 1, 1),
)


def run_seeds(seed_base: int, split_idx: int, seed_idx: int) -> tuple[int, int]:
    split_seed = int(seed_base) + SPLIT_SEED_STRIDE * (split_idx + 1)
    return split_seed, split_seed + TRAIN_SEED_STRIDE * (seed_idx + 1)


# ---------------------------------------------------------------------------
# dataset recipes

# a recipe is a small picklable value each worker can resolve on its own:
#   ("bundle", path string, sorted ood-class tuple)
#   ("sbm", SbmSpec, generator seed)
# Both arguments are passed by position, so that every call of one graph
# shares its cache entry.
@functools.lru_cache(maxsize=None)
def resolve_graph(recipe: tuple, edge_filter: tuple | None) -> Graph:
    """Materialize a dataset recipe, relabeled for training, with an
    optional (keep-classes, fraction, seed) edge filter applied."""
    if edge_filter is not None:
        keep, fraction, seed = edge_filter
        return filter_edges(resolve_graph(recipe, None), set(keep), fraction, seed)
    kind, source, arg = recipe
    graph = (load_graph_bundle if kind == "bundle" else sbm_generate)(source, arg)
    return relabel_for_training(graph)[0]


# ---------------------------------------------------------------------------
# spec files


@dataclass
class ExperimentSpec:
    name: str
    dataset: tuple
    model: ModelConfig
    train: TrainConfig
    splits: int = 3
    seeds_per_split: int = 3
    grid: list = field(default_factory=list)     # gridsearch (label, model, train) cells
    config: dict = field(default_factory=dict)   # resolved, JSON-ready


# spec sections that set config dataclass fields: each field is a key of
# its section, read as the field's annotated type, except the fields that
# the data or the run decides
_CONFIG_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "loss": LossWeights}
_NOT_IN_SPECS = {"num_classes", "loss_weights", "seed"}
_SECTION_KEYS = {name: {f.name: f.type for f in fields(cls) if f.name not in _NOT_IN_SPECS}
                 for name, cls in _CONFIG_SECTIONS.items()}
# a grid key is any section key but the architecture: key -> (section, type)
_GRID_KEYS = {key: (name, kind) for name, keys in _SECTION_KEYS.items()
              for key, kind in keys.items() if key != "architecture"}
_SBM_KEYS = {f.name: f.type for f in fields(SbmSpec)}
_DATASET_KEYS = {"bundle": {"kind", "path", "ood_classes"}, "sbm": {"kind", "seed", *_SBM_KEYS}}

_READERS = {"int": int, "float": float, "str": str}


def _value(key: str, token: str, kind: str):
    """A spec token read as `kind`, the annotation of the field `key` sets.
    A number is ASCII without underscores: `int` and `float` alone would
    also read `1_0`, or 10 in Arabic-Indic digits, as 10."""
    token = token.strip()
    try:
        if kind != "str" and ("_" in token or not token.isascii()):
            raise ValueError(token)
        value = _READERS[kind](token)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {token!r}") from None
    if kind == "float" and not np.isfinite(value):
        raise ConfigError(f"{key}: expected a finite float, got {token!r}")
    return value


def _int_list(key: str, token: str) -> list[int]:
    return [_value(key, p, "int") for p in token.split(",") if p.strip()]


def _section(parser: configparser.ConfigParser, name: str, allowed) -> dict[str, str]:
    if not parser.has_section(name):
        return {}
    items = dict(parser.items(name))
    unknown = items.keys() - set(allowed)
    if unknown:
        raise ConfigError(f"[{name}] has unknown key(s): {sorted(unknown)}")
    return items


def _section_values(parser: configparser.ConfigParser, name: str) -> dict:
    """A config section's keys, each read as its field's type."""
    keys = _SECTION_KEYS[name]
    return {k: _value(k, v, keys[k]) for k, v in _section(parser, name, keys).items()}


def _config(parser: configparser.ConfigParser, name: str, **fixed):
    """The config dataclass of a spec section: its keys over the defaults."""
    return _CONFIG_SECTIONS[name](**fixed, **_section_values(parser, name))


def _grid_candidates(key: str, text: str) -> list[tuple]:
    """A grid key's candidates as (shown, value) pairs. `shown` is how cell
    labels and the report header print a candidate: a number as read, an
    int literal kept an int. `value` is the candidate read as the key's
    type; no two candidates may read as the same value."""
    if key not in _GRID_KEYS:
        raise ConfigError(f"unknown grid field {key!r}; grid keys are the [model] "
                          "(but architecture), [train] and [loss] keys")
    kind = _GRID_KEYS[key][1]
    pairs = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        value = _value(key, token, kind)
        if any(value == v for _, v in pairs):
            raise ConfigError(f"grid field {key!r} lists the value {token!r} twice")
        try:
            shown = int(token)
        except ValueError:
            shown = value
        pairs.append((shown, value))
    return pairs


def expand_space(space: dict[str, list]) -> list[dict]:
    """Cartesian product of a {field: candidates} grid, in lexicographic
    order of the sorted field names."""
    if not space:
        raise ConfigError("grid space is empty")
    keys = sorted(space)
    for key in keys:
        if not space[key]:
            raise ConfigError(f"grid field {key!r} has no candidate values")
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(space[k] for k in keys))]


def _grid_cells(space: dict[str, list], train_cfg: TrainConfig) -> list[tuple]:
    """(label, [model] values, train config) of every cell of a grid of
    (shown, value) candidates: the cell's [train] and [loss] values replace
    those fields of train_cfg."""
    cells = []
    for assignment in expand_space(space):
        label = ",".join(f"{k}={shown}" for k, (shown, _) in assignment.items())
        over: dict[str, dict] = {name: {} for name in _CONFIG_SECTIONS}
        for key, (_, value) in assignment.items():
            over[_GRID_KEYS[key][0]][key] = value
        weights = replace(train_cfg.loss_weights, **over["loss"])
        cells.append((label, over["model"],
                      replace(train_cfg, loss_weights=weights, **over["train"])))
    return cells


def parse_spec(path, expected_name: str | None = None) -> ExperimentSpec:
    """Read an INI spec file and resolve every config object.

    Every section is read and type-checked before the dataset is loaded.
    The dataset is loaded once here so the ID class count (and with it
    the classifier width) comes from the data rather than the file, and
    so an experiment that draws splits fails here when the data cannot
    give them. Every grid cell's configs are built here too, so a bad
    cell fails at load, and kept as `spec.grid` for the gridsearch runner.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"spec file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad spec file {path}: {exc}") from None

    known_sections = {"experiment", "dataset", "grid", *_CONFIG_SECTIONS}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown section(s) in {path}: {sorted(unknown)}")

    exp = _section(parser, "experiment", {"name", "splits", "seeds_per_split"})
    name = exp.pop("name", expected_name)
    if name is None:
        raise ConfigError("experiment name missing: put name= under [experiment]")
    if expected_name is not None and name != expected_name:
        raise ConfigError(f"spec names experiment {name!r} but {expected_name!r} was requested")
    valid = (*RUNNERS, "gen-sbm")  # the commands that read a spec
    if name not in valid:
        raise ConfigError(f"unknown experiment {name!r}; valid: {valid}")
    counts = {k: _value(k, v, "int") for k, v in exp.items()}
    if min(counts.values(), default=1) < 1:
        raise ConfigError("splits and seeds_per_split must be >= 1")

    if not parser.has_section("dataset"):
        raise ConfigError("spec needs a [dataset] section")
    kind = parser.get("dataset", "kind", fallback=None)
    if kind not in _DATASET_KEYS:
        raise ConfigError("[dataset] kind must be 'bundle' or 'sbm'")
    if name == "gen-sbm" and kind != "sbm":
        raise ConfigError("gen-sbm needs [dataset] kind=sbm")
    ds = _section(parser, "dataset", _DATASET_KEYS[kind])
    if kind == "bundle":
        if "path" not in ds or "ood_classes" not in ds:
            raise ConfigError("[dataset] kind=bundle needs path= and ood_classes=")
        bundle = Path(ds["path"])
        if not bundle.is_absolute():
            bundle = path.parent / bundle
        ood = tuple(sorted(_int_list("ood_classes", ds["ood_classes"])))
        recipe = ("bundle", str(bundle), ood)
        dataset_cfg = {"kind": "bundle", "path": str(bundle), "ood_classes": list(ood)}
    else:
        missing = _SBM_KEYS.keys() - ds.keys()
        if missing:
            raise ConfigError(f"[dataset] kind=sbm missing key(s): {sorted(missing)}")
        sbm = SbmSpec(**{k: _value(k, ds[k], t) for k, t in _SBM_KEYS.items()
                         if k != "ood_classes"},
                      ood_classes=frozenset(_int_list("ood_classes", ds["ood_classes"])))
        seed = _value("seed", ds["seed"], "int") if "seed" in ds else 0
        if seed < 0:
            raise ConfigError(f"[dataset] seed must be >= 0, got {seed}")
        recipe = ("sbm", sbm, seed)
        dataset_cfg = {"kind": "sbm", **asdict(sbm),
                       "ood_classes": sorted(sbm.ood_classes), "seed": seed}

    model_values = _section_values(parser, "model")
    architecture = model_values.get("architecture", ModelConfig.architecture)
    if name == "ablate-losses" and architecture != "oodgat":
        raise ConfigError("ablate-losses requires an oodgat model")
    train_cfg = _config(parser, "train", loss_weights=_config(parser, "loss"))
    grid, cells = None, []
    if parser.has_section("grid"):
        if name != "gridsearch":
            raise ConfigError(f"[grid] is read by gridsearch only, not by {name}")
        space = {k: _grid_candidates(k, v) for k, v in parser.items("grid")}
        grid = {k: [shown for shown, _ in pairs] for k, pairs in space.items()}
        cells = _grid_cells(space, train_cfg)
    elif name == "gridsearch":
        raise ConfigError("gridsearch needs a [grid] section in the spec")

    graph = resolve_graph(recipe, None)
    if name in RUNNERS:
        split_classes(graph)
    num_classes = int((np.unique(graph.labels[graph.identity == 0])).size)
    model = ModelConfig(num_classes=num_classes, **model_values)

    # a cell's model keys are checked once the class count is known
    spec = ExperimentSpec(name=name, dataset=recipe, model=model, train=train_cfg,
                          grid=[(label, replace(model, **values), cell_train)
                                for label, values, cell_train in cells], **counts)
    spec.config = {
        "experiment": name, "splits": spec.splits,
        "seeds_per_split": spec.seeds_per_split, "dataset": dataset_cfg,
        "model": asdict(model),
        "train": {k: v for k, v in asdict(train_cfg).items() if k in _SECTION_KEYS["train"]},
        "loss": asdict(train_cfg.loss_weights),
        "grid": grid,
    }
    return spec


# ---------------------------------------------------------------------------
# run records and reports


@dataclass
class RunRecord:
    run_id: str
    condition: str
    split_idx: int
    seed_idx: int
    split_seed: int
    train_seed: int
    metrics: dict


@dataclass
class RunReport:
    experiment: str
    version: str
    config: dict
    runs: list
    aggregates: dict    # condition -> metric -> {"mean": x, "std": y}


def aggregate_runs(runs: list[RunRecord]) -> dict:
    """Per-condition mean/std (population) for every metric.

    Threshold metrics can be infinite (a run whose best operating point
    rejects nothing), so their aggregates may be inf/nan; that is
    reported as-is rather than masked.
    """
    out: dict = {}
    conditions = sorted({r.condition for r in runs})
    for cond in conditions:
        rows = [r.metrics for r in runs if r.condition == cond]
        names = sorted({k for m in rows for k in m})
        out[cond] = {}
        for name in names:
            vals = np.array([m[name] for m in rows if name in m], dtype=float)
            with np.errstate(invalid="ignore"):
                out[cond][name] = {"mean": float(vals.mean()),
                                   "std": float(vals.std(ddof=0))}
    return out


# ---------------------------------------------------------------------------
# task execution


@dataclass(frozen=True)
class RunTask:
    run_id: str
    condition: str
    split_idx: int
    seed_idx: int
    split_seed: int
    dataset: tuple
    edge_filter: tuple | None
    model: ModelConfig
    train: TrainConfig      # seed already set to the run's train seed
    want_curves: bool = False


def evaluate_run(trained, graph: Graph, splits, history, want_curves: bool):
    """Test-split metrics for one trained model, plus optional ROC points."""
    out = model_forward(trained.config, trained.params,
                        graph.features, graph_index(graph))
    test = splits.test_mask
    vals: dict = {"accuracy": metrics.accuracy(out.probs.values, graph.labels,
                                               test & (graph.identity == 0))}
    curves: dict = {}
    for tag, scores in metrics.detection_scores(out).items():
        s = metrics.ScoredNodes(scores, graph.identity, test)
        vals[f"auroc_{tag}"] = metrics.auroc(s)
        vals[f"aupr_{tag}"] = metrics.aupr(s)
        vals[f"fpr95_{tag}"] = metrics.fpr_at_tpr(s)
        f1, thr = metrics.joint_f1(out.probs.values, s, graph.labels)
        vals[f"joint_f1_{tag}"] = f1
        vals[f"joint_thr_{tag}"] = float(thr)
        if want_curves:
            curves[tag] = metrics.roc_points(s)
    vals["best_step"] = float(history.best_step)
    vals["steps_run"] = float(len(history.steps))
    vals["best_val_composite"] = float(history.best_composite)
    return {k: float(v) for k, v in vals.items()}, curves


def _run_single(task: RunTask, out_dir) -> RunRecord:
    """Train and evaluate one task. Given an output directory, the process
    that trained the run writes its history and curve files there before
    it returns the run's record."""
    try:
        graph = resolve_graph(task.dataset, task.edge_filter)
        splits = make_splits(graph, seed=task.split_seed)
        trained, history = train(task.model, graph, splits, task.train)
        vals, curves = evaluate_run(trained, graph, splits, history,
                                    task.want_curves and out_dir is not None)
    except TrainingAbort as exc:
        raise TrainingAbort(f"[{task.run_id}] {exc}", exc.step, exc.breakdown) from None
    except OodgatError as exc:
        raise type(exc)(f"[{task.run_id}] {exc}") from None
    if out_dir is not None:
        _write_run_files(task.run_id, history, curves, out_dir)
    return RunRecord(run_id=task.run_id, condition=task.condition,
                     split_idx=task.split_idx, seed_idx=task.seed_idx,
                     split_seed=task.split_seed, train_seed=task.train.seed,
                     metrics=vals)


def _retain_freed_memory() -> None:
    """Keep freed heap memory in the process instead of returning it to
    the kernel, so each training step reuses the pages of the last one
    rather than faulting them in again (glibc only).

    Blocks up to 32 MB come from the heap rather than their own mmap, and
    the heap top is trimmed only past 1 GB free. Where libc has no
    `mallopt`, or glibc refuses a value, the allocator is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3): 32 MB, the largest value glibc accepts;
    # M_TRIM_THRESHOLD (-1): 1 GB. mallopt returns 0 on failure.
    for param, value in ((-3, 32 << 20), (-1, 1 << 30)):
        if not mallopt(param, value):
            return


def execute_tasks(tasks: list[RunTask], workers: int = 1,
                  out_dir=None) -> Iterator[RunRecord]:
    """Yield the tasks' records in task order, each as soon as its run and
    every run before it have finished; a process pool preserves that order.

    Each run writes its own files into `out_dir` before its record is
    yielded. The pool never holds more processes than there are tasks. A
    bad worker count raises at the first `next`, before any task runs.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    _retain_freed_memory()
    pool_size = min(workers, len(tasks))
    out_dirs = itertools.repeat(out_dir)
    if pool_size <= 1:
        yield from map(_run_single, tasks, out_dirs)
        return
    with ProcessPoolExecutor(max_workers=pool_size,
                             initializer=_retain_freed_memory) as pool:
        yield from pool.map(_run_single, tasks, out_dirs)


def _tasks_for(spec: ExperimentSpec, seed_base: int, condition: str,
               model: ModelConfig, train_cfg: TrainConfig,
               edge_filter_fn=None, want_curves: bool = False) -> list[RunTask]:
    tasks = []
    for split_idx in range(spec.splits):
        for seed_idx in range(spec.seeds_per_split):
            split_seed, train_seed = run_seeds(seed_base, split_idx, seed_idx)
            tasks.append(RunTask(
                run_id=f"{condition}-s{split_idx}r{seed_idx}",
                condition=condition, split_idx=split_idx, seed_idx=seed_idx,
                split_seed=split_seed, dataset=spec.dataset,
                edge_filter=edge_filter_fn(split_seed) if edge_filter_fn else None,
                model=model, train=replace(train_cfg, seed=train_seed),
                want_curves=want_curves))
    return tasks


# ---------------------------------------------------------------------------
# exports


def _fmt(x) -> str:
    return repr(float(x))


def report_to_jsonl(report: RunReport) -> str:
    lines = [json.dumps({"kind": "header", "experiment": report.experiment,
                         "version": report.version, "config": report.config},
                        sort_keys=True)]
    for r in report.runs:
        lines.append(json.dumps({"kind": "run", "run_id": r.run_id,
                                 "condition": r.condition,
                                 "split_idx": r.split_idx, "seed_idx": r.seed_idx,
                                 "split_seed": r.split_seed,
                                 "train_seed": r.train_seed,
                                 "metrics": r.metrics}, sort_keys=True))
    for cond in sorted(report.aggregates):
        lines.append(json.dumps({"kind": "aggregate", "condition": cond,
                                 "metrics": report.aggregates[cond]},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def report_to_csv(report: RunReport) -> str:
    names = sorted({k for r in report.runs for k in r.metrics})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run_id", "condition", "split_idx", "seed_idx",
                     "split_seed", "train_seed", *names])
    for r in report.runs:
        writer.writerow([r.run_id, r.condition, r.split_idx, r.seed_idx,
                         r.split_seed, r.train_seed,
                         *(_fmt(r.metrics[n]) if n in r.metrics else ""
                           for n in names)])
    for cond in sorted(report.aggregates):
        agg = report.aggregates[cond]
        writer.writerow(["mean", cond, "", "", "", "",
                         *(_fmt(agg[n]["mean"]) if n in agg else ""
                           for n in names)])
    return buf.getvalue()


def report_text_table(report: RunReport) -> str:
    """Per-condition mean +/- std rows, one column per metric."""
    names = sorted({k for r in report.runs for k in r.metrics})
    if not names:
        return f"{report.experiment}: no runs\n"
    cells = {}
    for cond, agg in report.aggregates.items():
        cells[cond] = {n: f"{agg[n]['mean']:.4f}+-{agg[n]['std']:.4f}"
                       for n in names if n in agg}
    widths = {n: max(len(n), *(len(cells[c].get(n, "")) for c in cells))
              for n in names}
    cond_w = max(len("condition"), *(len(c) for c in cells))
    lines = [" | ".join(["condition".ljust(cond_w)]
                        + [n.ljust(widths[n]) for n in names])]
    lines.append("-+-".join(["-" * cond_w] + ["-" * widths[n] for n in names]))
    for cond in sorted(cells):
        lines.append(" | ".join([cond.ljust(cond_w)]
                                + [cells[cond].get(n, "").ljust(widths[n])
                                   for n in names]))
    return "\n".join(lines) + "\n"


def export_report(report: RunReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, render in (("report.jsonl", report_to_jsonl),
                         ("report.csv", report_to_csv),
                         ("report.txt", report_text_table)):
        target = out / name
        _write_atomic(target, [render(report)])
        written.append(target)
    return written


# one %-format per row renders each value as _fmt does: repr of a float
_HISTORY_ROW = "%s" + ",%r" * (len(HISTORY_COLUMNS) - 1) + "\n"


def _history_lines(rows: list):
    yield ",".join(HISTORY_COLUMNS) + "\n"
    values = np.array([row[1:] for row in rows], dtype=float).tolist()
    for row, vals in zip(rows, values):
        yield _HISTORY_ROW % (row[0], *vals)


def _curve_lines(points):
    yield "threshold,tpr,fpr\n"
    for th, tpr, fpr in points.tolist():
        yield "%r,%r,%r\n" % (th, tpr, fpr)


def _write_run_files(run_id: str, history, curves: dict, out_dir) -> None:
    out = Path(out_dir)
    hist_dir = out / "history"
    hist_dir.mkdir(parents=True, exist_ok=True)
    rows = [(s.step, s.losses.ce, s.losses.con, s.losses.ent, s.losses.dis,
             s.losses.decay, s.losses.total, s.val_accuracy, s.val_auroc,
             s.composite) for s in history.steps]
    _write_atomic(hist_dir / f"{run_id}.csv", _history_lines(rows))
    if curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(parents=True, exist_ok=True)
        for tag, points in curves.items():
            suffix = "roc" if tag == "ent" else f"{tag}-roc"
            _write_atomic(curve_dir / f"{run_id}-{suffix}.csv", _curve_lines(points))


def _assemble(spec: ExperimentSpec, seed_base: int, tasks: list[RunTask],
              workers: int, out_dir) -> RunReport:
    """Run the tasks and report their records. The report files are
    written last: a report in the directory means its run files are
    complete, and a failed task leaves the finished runs' files only.
    A report already in out_dir goes before the first task starts, so it
    never vouches for this call's run files."""
    if out_dir is not None:
        for old in Path(out_dir).glob("report.*"):
            old.unlink()
    runs = list(execute_tasks(tasks, workers, out_dir))
    config = {**spec.config, "seed_base": int(seed_base)}
    report = RunReport(experiment=spec.name, version=__version__, config=config,
                       runs=runs, aggregates=aggregate_runs(runs))
    if out_dir is not None:
        export_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# experiment runners


def run_train_eval(spec: ExperimentSpec, seed_base: int = 0, workers: int = 1,
                   out_dir=None) -> RunReport:
    """Train/evaluate the configured model over splits x seeds."""
    tasks = _tasks_for(spec, seed_base, spec.model.architecture,
                       spec.model, spec.train, want_curves=True)
    return _assemble(spec, seed_base, tasks, workers, out_dir)


def _ce_only(train_cfg: TrainConfig) -> TrainConfig:
    """Regularizers need attention scores; runners that force score-free
    architectures train on plain cross-entropy."""
    weights = replace(train_cfg.loss_weights, beta=0.0, gamma=0.0, zeta=0.0)
    return replace(train_cfg, loss_weights=weights)


def run_edge_ablation(spec: ExperimentSpec, seed_base: int = 0, workers: int = 1,
                      out_dir=None) -> RunReport:
    """Classifier quality and detection under edge-subset conditions.

    Conditions: inter-edge removal at each fraction (fraction 0 is the
    untouched graph), then intra-ID-only and intra-OOD-only graphs. The
    filter redraws which edges vanish per split.
    """
    model = replace(spec.model, architecture="gcn", heads=1)
    train_cfg = _ce_only(spec.train)
    tasks: list[RunTask] = []
    for frac in (0.0, 0.5, 1.0):
        fn = None if frac == 0.0 else (
            lambda ss, fr=frac: (("intra_id", "intra_ood"), fr, ss))
        tasks += _tasks_for(spec, seed_base, f"inter-{frac:g}", model,
                            train_cfg, edge_filter_fn=fn)
    tasks += _tasks_for(spec, seed_base, "intra_id-only", model, train_cfg,
                        edge_filter_fn=lambda ss: (("intra_id",), 1.0, ss))
    tasks += _tasks_for(spec, seed_base, "intra_ood-only", model, train_cfg,
                        edge_filter_fn=lambda ss: (("intra_ood",), 1.0, ss))
    return _assemble(spec, seed_base, tasks, workers, out_dir)


def run_smoothing_roc(spec: ExperimentSpec, seed_base: int = 0, workers: int = 1,
                      out_dir=None) -> RunReport:
    """MLP vs aggregation: same data, entropy-score ROC curves exported."""
    train_cfg = _ce_only(spec.train)
    tasks: list[RunTask] = []
    for arch in ("mlp", "gcn"):
        model = replace(spec.model, architecture=arch, heads=1)
        tasks += _tasks_for(spec, seed_base, arch, model, train_cfg,
                            want_curves=True)
    return _assemble(spec, seed_base, tasks, workers, out_dir)


def run_loss_ablation(spec: ExperimentSpec, seed_base: int = 0, workers: int = 1,
                      out_dir=None) -> RunReport:
    """The seven regularizer on/off rows with otherwise identical config."""
    base = spec.train.loss_weights
    tasks: list[RunTask] = []
    for cond, use_con, use_ent, use_dis in ABLATION_ROWS:
        weights = replace(base, beta=base.beta * use_con,
                          gamma=base.gamma * use_ent, zeta=base.zeta * use_dis)
        tasks += _tasks_for(spec, seed_base, cond, spec.model,
                            replace(spec.train, loss_weights=weights))
    return _assemble(spec, seed_base, tasks, workers, out_dir)


def run_gridsearch(spec: ExperimentSpec, seed_base: int = 0, workers: int = 1,
                   out_dir=None) -> RunReport:
    """Train every grid cell on split 0, one run per configured seed."""
    tasks: list[RunTask] = []
    for cond, model, train_cfg in spec.grid:
        for seed_idx in range(spec.seeds_per_split):
            split_seed, train_seed = run_seeds(seed_base, 0, seed_idx)
            tasks.append(RunTask(run_id=f"{cond}-r{seed_idx}", condition=cond,
                                 split_idx=0, seed_idx=seed_idx,
                                 split_seed=split_seed, dataset=spec.dataset,
                                 edge_filter=None, model=model,
                                 train=replace(train_cfg, seed=train_seed)))
    return _assemble(spec, seed_base, tasks, workers, out_dir)


# the experiments that train, each on splits drawn by make_splits
RUNNERS = {
    "train-eval": run_train_eval,
    "edge-ablation": run_edge_ablation,
    "smoothing-roc": run_smoothing_roc,
    "ablate-losses": run_loss_ablation,
    "gridsearch": run_gridsearch,
}


def best_grid_condition(report: RunReport) -> tuple[str, float]:
    """Winning gridsearch cell by mean validation composite; ties resolve
    to the lexicographically smallest condition string."""
    scored = [(cond, agg["best_val_composite"]["mean"])
              for cond, agg in report.aggregates.items()]
    if not scored:
        raise ConfigError("gridsearch report has no aggregates")
    best = sorted(scored, key=lambda cs: (-cs[1], cs[0]))[0]
    return best


def run_gen_sbm(spec: ExperimentSpec, out_dir) -> dict:
    """Write the spec's block-model graph out as a bundle directory."""
    _, sbm, seed = spec.dataset
    graph = sbm_generate(sbm, seed)
    out = Path(out_dir)
    save_graph_bundle(graph, out)
    mapping = {c: (1 if c in sbm.ood_classes else 0) for c in range(sbm.classes)}
    meta = {"nodes": graph.num_nodes, "edges": graph.num_edges,
            "classes": sbm.classes, "ood_classes": sorted(sbm.ood_classes),
            "node_homophily": node_homophily(graph, graph.labels),
            "identity_homophily": identity_homophily(graph, mapping)}
    _write_atomic(out / "meta.json", [json.dumps(meta, sort_keys=True) + "\n"])
    return meta


# ---------------------------------------------------------------------------
# check batteries (shared by the CLI and the acceptance suite)


def _random_segment_graph(rng: np.random.Generator, n: int):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.35]
    if not edges:
        edges = [(0, 1)]
    arr = np.array(edges + [(v, u) for u, v in edges], dtype=np.int64)
    return engine.build_segment_index(arr[:, 0], arr[:, 1], n)


def gradcheck_battery(seed: int = 0) -> list[tuple[str, object]]:
    """One gradient check per differentiable operation, then the full
    oodgat, gcn and gat objectives on a 12-node random graph, the oodgat
    objective once more in training mode (dropout and drop-edge), the
    full mlp objective, the fused objective terms, the row gather, the
    gcn objective over features narrower than its hidden layer, in
    evaluation and in training mode, and last the attention op in both
    kinds over three heads, side by side and averaged."""
    rng = np.random.default_rng(seed)

    def t(shape, low=-2.0, high=2.0):
        return Tensor(rng.uniform(low, high, shape), requires_grad=True)

    checks: list[tuple[str, object]] = []

    def check(name, build, params, tol):
        checks.append((name, grad_check(build, params, tol=tol)))

    a, b = t((3, 4)), t((3, 4))
    pos = t((3, 4), 0.5, 3.0)  # positive: the log_sum and row_entropy checks below
    check("add", lambda: engine.reduce_sum(engine.mul(engine.add(a, b), a)),
          {"a": a, "b": b}, 1e-6)
    check("mul", lambda: engine.reduce_sum(engine.mul(a, b)), {"a": a, "b": b}, 1e-6)
    check("scale", lambda: engine.reduce_sum(engine.scale(a, -1.7)), {"a": a}, 1e-6)
    check("sigmoid", lambda: engine.reduce_sum(engine.sigmoid(a)), {"a": a}, 1e-6)
    check("elu", lambda: engine.reduce_sum(engine.elu(a)), {"a": a}, 1e-4)

    m1, m2 = t((3, 5)), t((5, 2))
    check("matmul", lambda: engine.reduce_sum(engine.matmul(m1, m2)),
          {"m1": m1, "m2": m2}, 1e-6)
    check("reduce_sum", lambda: engine.reduce_sum(engine.mul(a, a)), {"a": a}, 1e-6)
    check("row_softmax", lambda: engine.reduce_sum(
        engine.mul(engine.row_softmax(a), b)), {"a": a, "b": b}, 1e-6)

    def dropout_build():
        local = np.random.default_rng(99)
        return engine.reduce_sum(engine.dropout(engine.mul(a, b), 0.4, local))

    check("dropout", dropout_build, {"a": a, "b": b}, 1e-6)
    c1, c2 = t((5, 1), 0.2, 1.5), t((5, 1), 0.2, 1.5)
    check("cosine_similarity", lambda: engine.cosine_similarity(c1, c2),
          {"c1": c1, "c2": c2}, 1e-6)

    # the full objective on a 12-node random graph
    n = 12
    g_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
               if rng.random() < 0.3] or [(0, 1)]
    graph = make_graph(n, g_edges, rng.standard_normal((n, 6)),
                       rng.integers(0, 3, n), np.zeros(n, np.int8))
    cfg = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=5)
    params = init_params(cfg, 6, rng)
    for name, tensor in params.items():
        if name.endswith(".a"):  # one (rows, 1) draw per head, in head order
            tensor.values = np.hstack([rng.uniform(0.05, 0.3, (tensor.shape[0], 1))
                                       for _ in range(cfg.heads)])
    mask = np.zeros(n, bool)
    mask[:6] = True
    weights = LossWeights(beta=2.0, gamma=0.05, zeta=0.005, epsilon=0.2)
    idx = graph_index(graph)

    def objective(config, model_params, loss_weights, training=None):
        # a fresh identically-seeded rng keeps dropout and drop-edge masks fixed
        return lambda: compute_objective(model_forward(
            config, model_params, graph.features, idx, training=training,
            rng=np.random.default_rng(17)), graph.labels, mask, loss_weights, t=3)[0]

    check("full_oodgat_objective", objective(cfg, params, weights), params, 1e-4)
    for arch, heads in (("gcn", 1), ("gat", 2)):
        arch_cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=5)
        arch_params = init_params(arch_cfg, 6, rng)
        check(f"full_{arch}_objective", objective(arch_cfg, arch_params, LossWeights()),
              arch_params, 1e-4)
    check("full_oodgat_objective_training", objective(
        cfg, params, weights, TrainConfig(dropout_p=0.3, drop_edge_p=0.3)), params, 1e-4)
    mlp_cfg = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=5)
    mlp_params = init_params(mlp_cfg, 6, rng)
    check("full_mlp_objective", objective(mlp_cfg, mlp_params, LossWeights()),
          mlp_params, 1e-4)

    # the fused objective terms
    check("log_sum_entries", lambda: engine.log_sum(
        pos, np.array([0, 1, 2, 0]), np.array([3, 0, 2, 3]), -0.7), {"pos": pos}, 1e-6)
    check("log_sum_rows", lambda: engine.log_sum(pos, np.array([2, 0, 2]), None, 0.4),
          {"pos": pos}, 1e-6)
    check("row_entropy", lambda: engine.reduce_sum(engine.mul(
        engine.row_entropy(pos), np.array([[1.0], [-2.0], [0.5]]))), {"pos": pos}, 1e-6)
    check("standardize", lambda: engine.reduce_sum(engine.mul(
        engine.standardize(c1, 1e-12), c2)), {"c1": c1}, 1e-6)
    # a variance floor above c1's variance keeps the unscaled branch under
    # every finite-difference step
    check("standardize_floor", lambda: engine.reduce_sum(engine.mul(
        engine.standardize(c1, 1.0), c2)), {"c1": c1}, 1e-6)
    check("weighted_sum", lambda: engine.weighted_sum(
        engine.reduce_sum(a), [engine.reduce_sum(engine.mul(a, b)),
                               engine.cosine_similarity(c1, c2), engine.reduce_sum(b)],
        [2.0, 0.05, 0.005], 0.73), {"a": a, "b": b, "c1": c1, "c2": c2}, 1e-6)
    check("take_rows", lambda: engine.reduce_sum(engine.mul(
        engine.take_rows(a, np.array([2, 0, 2])), b)), {"a": a, "b": b}, 1e-6)

    # gcn over features narrower than its hidden layer, whose first layer
    # aggregates the features before the product with W
    narrow_cfg = ModelConfig(architecture="gcn", num_classes=3, hidden_dim=8)
    narrow_params = init_params(narrow_cfg, 6, rng)
    check("full_gcn_objective_narrow", objective(narrow_cfg, narrow_params, LossWeights()),
          narrow_params, 1e-4)
    check("full_gcn_objective_narrow_training", objective(
        narrow_cfg, narrow_params, LossWeights(), TrainConfig(dropout_p=0.3, drop_edge_p=0.3)),
        narrow_params, 1e-4)

    # the attention op in both kinds, K = 3 heads of width 2 on a 6-node
    # index, with the heads side by side and averaged; the output and the
    # mean score both reach the loss
    heads = 3
    seg = _random_segment_graph(rng, 6)
    hh = t((seg.num_nodes, 2 * heads))
    proj, attn = t((2, heads)), t((4, heads))
    score_mixer = np.linspace(1.0, -0.5, seg.num_nodes).reshape(-1, 1)

    def attention_build(kind, vectors, average):
        def build():
            out, score = engine.attention(hh, vectors, seg, kind, average)
            loss = engine.reduce_sum(engine.mul(out, np.linspace(-1.0, 1.0, out.values.size)
                                                .reshape(out.shape)))
            if score is None:
                return loss
            return engine.add(loss, engine.reduce_sum(engine.mul(score, score_mixer)))
        return build

    for kind, vectors in (("agree", proj), ("leaky", attn)):
        for average in (False, True):
            check(f"attention_{kind}" + "_average" * average,
                  attention_build(kind, vectors, average), {"hh": hh, "attn": vectors}, 1e-4)
    return checks


def run_homophily_check(count: int = 1000, seed_base: int = 0) -> dict:
    """Random graphs of 10 to 200 nodes, random labelings, random
    class-to-identity maps: grouping labels into two identities can only
    raise homophily."""
    rng = np.random.default_rng(seed_base)
    violations = 0
    min_margin = np.inf
    for case in range(count):
        k = int(rng.integers(2, 7))
        if case % 2 == 0:
            n = int(rng.integers(10, 201))
            graph = _edged(lambda s: er_generate(n, float(rng.uniform(0.03, 0.3)),
                                                 k, seed=s), rng)
        else:
            per = int(rng.integers(max(2, 10 // k), 200 // k + 1))
            spec = SbmSpec(classes=k, nodes_per_class=per,
                           p_intra=float(rng.uniform(0.05, 0.4)),
                           p_inter=float(rng.uniform(0.0, 0.05)),
                           feature_dim=2, class_mean_separation=1.0,
                           ood_classes=frozenset({k - 1}))
            graph = _edged(lambda s: sbm_generate(spec, seed=s), rng)
        mapping = {c: int(rng.integers(0, 2)) for c in range(k)}
        if case % 2 == 0:
            labels = rng.integers(0, k, graph.num_nodes)
            lut = np.array([mapping[c] for c in range(k)])
            h_node = node_homophily(graph, labels)
            h_id = node_homophily(graph, lut[labels])
        else:
            h_node = node_homophily(graph, graph.labels)
            h_id = identity_homophily(graph, mapping)
        margin = h_id - h_node
        min_margin = min(min_margin, margin)
        if margin < 0:
            violations += 1
    return {"count": count, "violations": violations,
            "min_margin": float(min_margin)}


def _edged(gen, rng: np.random.Generator) -> Graph:
    """Draw until the generator yields a graph with at least one edge."""
    while True:
        graph = gen(int(rng.integers(2 ** 31)))
        if graph.num_edges:
            return graph
