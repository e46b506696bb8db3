"""Harness tests: spec parsing, seeding, runners, and report exports."""

import configparser
import ctypes
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodgat import experiments
from oodgat.errors import ConfigError, GraphDataError
from oodgat.experiments import (
    RunRecord,
    RunReport,
    aggregate_runs,
    best_grid_condition,
    expand_space,
    export_report,
    gradcheck_battery,
    parse_spec,
    report_text_table,
    report_to_csv,
    report_to_jsonl,
    resolve_graph,
    run_edge_ablation,
    run_gen_sbm,
    run_gridsearch,
    run_homophily_check,
    run_loss_ablation,
    run_seeds,
    run_smoothing_roc,
    run_train_eval,
)
from oodgat.graphs import load_graph_bundle

ROOT = Path(__file__).resolve().parents[1]

BASE_SPEC = """\
[experiment]
name = {name}
splits = {splits}
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
hidden_dim = {hidden}

[train]
lr = 0.01
weight_decay = 0.0005
max_steps = {steps}
patience = {steps}

[loss]
{loss}
{extra}
"""

OODGAT_LOSS = "beta = 1.0\ngamma = 0.05\nzeta = 0.005\nepsilon = 0.5"


def write_spec(tmp_path, name="train-eval", arch="oodgat", heads=2, hidden=8,
               steps=25, splits=2, seeds=1, loss=None, extra=""):
    if loss is None:
        # regularizers need attention scores, so baselines train CE-only
        loss = OODGAT_LOSS if arch == "oodgat" else ""
    path = tmp_path / f"{name}.spec"
    path.write_text(BASE_SPEC.format(name=name, arch=arch, heads=heads,
                                     hidden=hidden, steps=steps, splits=splits,
                                     seeds=seeds, loss=loss, extra=extra),
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# seeding and spec parsing


def test_run_seeds_closed_form():
    assert run_seeds(0, 0, 0) == (7919, 7919 + 104729)
    assert run_seeds(5, 2, 1) == (5 + 3 * 7919, 5 + 3 * 7919 + 2 * 104729)


def test_run_seeds_no_collisions():
    seen = set()
    for split in range(3):
        for seed in range(3):
            seen.add(run_seeds(0, split, seed))
    assert len(seen) == 9
    assert len({t for _, t in seen}) == 9


def test_parse_spec_resolves_model_width(tmp_path):
    spec = parse_spec(write_spec(tmp_path))
    assert spec.name == "train-eval"
    assert spec.model.num_classes == 3  # 4 SBM classes minus 1 OOD class
    assert spec.model.architecture == "oodgat"
    assert spec.train.lr == 0.01
    assert spec.train.loss_weights.beta == 1.0
    assert spec.splits == 2
    assert spec.config["dataset"]["ood_classes"] == [3]


def test_parse_spec_defaults(tmp_path):
    path = tmp_path / "min.spec"
    path.write_text("""
[experiment]
name = train-eval

[dataset]
kind = sbm
classes = 3
nodes_per_class = 40
p_intra = 0.2
p_inter = 0.02
feature_dim = 4
class_mean_separation = 1.0
ood_classes = 2

[model]
architecture = gcn
""", encoding="utf-8")
    spec = parse_spec(path)
    assert (spec.splits, spec.seeds_per_split) == (3, 3)
    assert spec.train.max_steps == 1000
    assert spec.train.patience == 200
    assert spec.train.weight_decay == 5e-4
    assert spec.model.width == 64


def test_parse_spec_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_spec(tmp_path / "nope.spec")

    bad = tmp_path / "bad.spec"
    bad.write_text("[mystery]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_spec(bad)

    bad.write_text("[experiment]\nname = fly-to-moon\n[dataset]\nkind = sbm\n",
                   encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_spec(bad)

    # the commands that read no spec are no spec's experiment
    demo = (ROOT / "specs" / "sbm-demo.spec").read_text(encoding="utf-8")
    for name in ("gradcheck", "homophily-check"):
        bad.write_text(demo.replace("name = train-eval", f"name = {name}"), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown experiment '{name}'") as exc:
            parse_spec(bad)
        assert "gradcheck" not in str(exc.value).split("valid:")[1]

    with pytest.raises(ConfigError, match="was requested"):
        parse_spec(write_spec(tmp_path), expected_name="gridsearch")

    bad.write_text("[experiment]\nname = train-eval\n"
                   "[dataset]\nkind = csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="kind must be"):
        parse_spec(bad)

    bad.write_text("[experiment]\nname = train-eval\n"
                   "[dataset]\nkind = sbm\nclasses = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing key"):
        parse_spec(bad)

    bad.write_text("[experiment]\nname = train-eval\nturbo = yes\n"
                   "[dataset]\nkind = sbm\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_spec(bad)


def test_parse_spec_grid_section(tmp_path):
    path = write_spec(tmp_path, name="gridsearch",
                      extra="\n[grid]\nlr = 0.01, 0.1\nheads = 1, 4\n")
    spec = parse_spec(path)
    assert spec.config["grid"] == {"lr": [0.01, 0.1], "heads": [1, 4]}
    assert [label for label, _, _ in spec.grid] == [
        "heads=1,lr=0.01", "heads=1,lr=0.1", "heads=4,lr=0.01", "heads=4,lr=0.1"]

    bad = write_spec(tmp_path, name="gridsearch",
                     extra="\n[grid]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown grid field"):
        parse_spec(bad)


def test_spec_values_read_as_field_types(tmp_path):
    for loss, key in (("epsilon = x", "epsilon"), ("beta = nan", "beta"),
                      ("zeta = inf", "zeta")):
        with pytest.raises(ConfigError, match=f"{key}: expected"):
            parse_spec(write_spec(tmp_path, loss=loss))
    with pytest.raises(ConfigError, match="max_steps: expected int, got '3.0'"):
        parse_spec(write_spec(tmp_path, steps="3.0"))
    with pytest.raises(ConfigError, match="heads: expected int"):
        parse_spec(write_spec(tmp_path, heads="2.5"))


# Python's int() and float() read every one of these as a number
@pytest.mark.parametrize("key, token, kind", [
    ("max_steps", "1_0", "int"),
    ("max_steps", "١٠", "int"),
    ("max_steps", "１０", "int"),
    ("lr", "1_0.5", "float"),
    ("lr", "1e1_0", "float"),
    ("lr", "١٠.5", "float"),
])
def test_spec_numbers_are_ascii_without_underscores(key, token, kind):
    with pytest.raises(ConfigError, match=f"^{key}: expected {kind}, got '{token}'$"):
        experiments._value(key, token, kind)


def test_ascii_spec_numbers_still_read():
    assert experiments._value("max_steps", " +10 ", "int") == 10
    assert experiments._value("max_steps", "010", "int") == 10
    assert experiments._value("lr", "1e-3", "float") == 0.001
    assert experiments._value("lr", ".5", "float") == 0.5
    assert experiments._value("architecture", "gcn_ü", "str") == "gcn_ü"
    assert experiments._int_list("ood_classes", "3, 11") == [3, 11]
    assert experiments._grid_candidates("max_steps", "10, 20") == [(10, 10), (20, 20)]


def test_spec_lists_and_grid_cells_inherit_the_ascii_rule():
    with pytest.raises(ConfigError, match="^ood_classes: expected int, got '٣'$"):
        experiments._int_list("ood_classes", "٣, 1")
    with pytest.raises(ConfigError, match="^ood_classes: expected int, got '1_1'$"):
        experiments._int_list("ood_classes", "3, 1_1")
    with pytest.raises(ConfigError, match="^max_steps: expected int, got '1_0'$"):
        experiments._grid_candidates("max_steps", "1_0, 20")
    with pytest.raises(ConfigError, match="^max_steps: expected int, got '٢٠'$"):
        experiments._grid_candidates("max_steps", "10, ٢٠")


def test_grid_labels_keep_the_written_numbers(tmp_path):
    spec = parse_spec(write_spec(tmp_path, name="gridsearch", extra=(
        "\n[grid]\ndropout_p = 0, 0.5\nweight_decay = 0, 5e-5\n")))
    assert spec.config["grid"] == {"dropout_p": [0, 0.5], "weight_decay": [0, 5e-05]}
    label, model, train_cfg = spec.grid[0]
    assert label == "dropout_p=0,weight_decay=0"
    assert type(train_cfg.dropout_p) is float and train_cfg.weight_decay == 0.0
    assert spec.grid[-1][0] == "dropout_p=0.5,weight_decay=5e-05"


@pytest.mark.parametrize("line", ["seed = 1, 2", "architecture = gcn, mlp",
                                  "num_classes = 2, 3", "loss_weights = 1"])
def test_grid_rejects_fields_no_spec_sets(tmp_path, line):
    with pytest.raises(ConfigError, match="unknown grid field"):
        parse_spec(write_spec(tmp_path, name="gridsearch", extra=f"\n[grid]\n{line}\n"))


@pytest.mark.parametrize("line, match", [
    ("heads = 2.0", "heads: expected int, got '2.0'"),
    ("max_steps = 3.5", "max_steps: expected int"),
    ("lr = 0.1, fast", "lr: expected float"),
    ("heads = 1, 0", "heads must be >= 1"),
    ("dropout_p = 0, 1.5", "dropout rates"),
    ("lr = 0.1, 1e-1", "twice"),
    ("dropout_p = 0, 0.0", "twice"),
])
def test_bad_grid_cell_fails_at_load(tmp_path, line, match):
    with pytest.raises(ConfigError, match=match):
        parse_spec(write_spec(tmp_path, name="gridsearch", extra=f"\n[grid]\n{line}\n"))


EARLY_SPEC = """\
[experiment]
name = {name}

[dataset]
{dataset}

{sections}
"""
BUNDLE_DATASET = "kind = bundle\npath = no-such-bundle\nood_classes = 2"
SBM_DATASET = ("kind = sbm\nclasses = 4\nnodes_per_class = 50\np_intra = 0.1\np_inter = 0.01\n"
               "feature_dim = 3\nclass_mean_separation = 3.0\nood_classes = 3")


@pytest.mark.parametrize("name, dataset, sections, match", [
    ("train-eval", BUNDLE_DATASET, "[train]\nlr = x", "lr: expected float"),
    ("train-eval", BUNDLE_DATASET, "[train]\nlr = -1", "lr must be > 0"),
    ("train-eval", BUNDLE_DATASET, "[model]\nheads = 2.5", "heads: expected int"),
    ("train-eval", BUNDLE_DATASET, "[model]\nwings = 2", "unknown key"),
    ("train-eval", BUNDLE_DATASET, "[loss]\nbeta = nan", "beta: expected a finite float"),
    ("gridsearch", BUNDLE_DATASET, "[grid]\nlr = 0.1, -1", "lr must be > 0"),
    ("gridsearch", BUNDLE_DATASET, "[grid]\nheads = 1, two", "heads: expected int"),
    ("gridsearch", BUNDLE_DATASET, "", "gridsearch needs a \\[grid\\] section"),
    ("ablate-losses", BUNDLE_DATASET, "[model]\narchitecture = gat",
     "ablate-losses requires an oodgat model"),
    ("ablate-losses", BUNDLE_DATASET, "", "ablate-losses requires an oodgat model"),
    ("train-eval", BUNDLE_DATASET, "[grid]\nlr = 0.1", "gridsearch only"),
    ("train-eval", BUNDLE_DATASET + "\nseed = -5\np_intra = 0.9", "",
     "unknown key\\(s\\): \\['p_intra', 'seed'\\]"),
    ("train-eval", SBM_DATASET + "\npath = x", "", "unknown key\\(s\\): \\['path'\\]"),
    ("gen-sbm", BUNDLE_DATASET, "", "gen-sbm needs \\[dataset\\] kind=sbm"),
    ("train-eval", BUNDLE_DATASET.replace("= 2", "= ٢"), "", "ood_classes: expected int"),
    ("train-eval", BUNDLE_DATASET, "[train]\nmax_steps = 1_0", "max_steps: expected int"),
    ("gridsearch", BUNDLE_DATASET, "[grid]\nlr = 0.1, 1_0.5", "lr: expected float"),
], ids=["lr-type", "lr-range", "model-type", "model-key", "loss-value", "grid-range",
        "grid-type", "grid-missing", "ablation-arch", "ablation-default-arch",
        "grid-outside-gridsearch", "sbm-keys-in-bundle", "bundle-key-in-sbm",
        "gen-sbm-from-bundle", "list-digits", "train-underscore",
        "grid-underscore"])
def test_spec_sections_fail_before_the_dataset_loads(tmp_path, monkeypatch, name, dataset,
                                                     sections, match):
    def load(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(experiments, "load_graph_bundle", load)
    monkeypatch.setattr(experiments, "sbm_generate", load)
    path = tmp_path / "early.spec"
    path.write_text(EARLY_SPEC.format(name=name, dataset=dataset, sections=sections),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        parse_spec(path)


@pytest.mark.parametrize("name", ["train-eval", "smoothing-roc", "gridsearch"])
def test_splits_that_cannot_be_drawn_fail_at_load(tmp_path, name):
    extra = "\n[grid]\nlr = 0.01\n" if name == "gridsearch" else ""
    path = write_spec(tmp_path, name=name, extra=extra)
    path.write_text(path.read_text().replace("nodes_per_class = 50", "nodes_per_class = 20"))
    with pytest.raises(GraphDataError, match="class 0 has 20 nodes, needs 30 for train"):
        parse_spec(path)


def test_experiments_that_draw_no_splits_load_small_graphs(tmp_path):
    path = write_spec(tmp_path, name="gen-sbm")
    path.write_text(path.read_text().replace("nodes_per_class = 50", "nodes_per_class = 20"))
    assert parse_spec(path).name == "gen-sbm"


def test_expand_space_cardinality_matches_tuning_grid():
    space = {"lr": [0.01, 0.1], "dropout_p": [0.0, 0.5], "heads": [1, 4, 8],
             "weight_decay": [0.0, 5e-5, 5e-4, 5e-3]}
    assert len(expand_space(space)) == 48


def test_expand_space_rejects_bad_input():
    with pytest.raises(ConfigError, match="empty"):
        expand_space({})
    with pytest.raises(ConfigError, match="no candidate"):
        expand_space({"lr": []})


def test_grid_cells_route_fields(tmp_path):
    spec = parse_spec(write_spec(tmp_path, name="gridsearch", heads=1, extra=(
        "\n[grid]\nheads = 8\nlr = 0.1\nbeta = 3.0\nepsilon = 0.3\n")))
    [(label, model, train_cfg)] = spec.grid
    assert label == "beta=3.0,epsilon=0.3,heads=8,lr=0.1"
    assert model.heads == 8
    assert train_cfg.lr == 0.1
    assert train_cfg.loss_weights.beta == 3.0
    assert train_cfg.loss_weights.epsilon == 0.3
    # the fields no cell sets keep the spec's values
    assert model.architecture == "oodgat" and model.num_classes == spec.model.num_classes
    assert train_cfg.weight_decay == spec.train.weight_decay
    assert train_cfg.loss_weights.gamma == spec.train.loss_weights.gamma
    # the spec's own configs are untouched
    assert spec.model.heads == 1 and spec.train.lr == 0.01
    assert spec.train.loss_weights.beta == 1.0
    assert spec.train.loss_weights.epsilon == 0.5


def readme_spec_keys() -> dict[str, set[str]]:
    """The keys that the README's "Spec files" block lists per section."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Spec files")[1]
    parts = re.split(r"^\[(\w+)\]", block.split("```")[1], flags=re.M)[1:]
    # a key starts a line or follows a comma; "= ..." after it is its value
    return {name: set(re.findall(r"(?:^|,)\s*(\w+)", text, flags=re.M))
            for name, text in zip(parts[::2], parts[1::2])}


def test_readme_lists_the_spec_keys():
    listed = readme_spec_keys()
    assert {name: listed[name] for name in experiments._SECTION_KEYS} == {
        name: set(keys) for name, keys in experiments._SECTION_KEYS.items()}


COMMITTED_SPECS = sorted((ROOT / "specs").glob("*.spec")) + sorted(
    (ROOT / "perfbench" / "specs").glob("*.spec"))


def _ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(path.read_text(encoding="utf-8"))
    return parser


@pytest.mark.parametrize("spec_file", COMMITTED_SPECS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_committed_spec_parses(tmp_path, spec_file):
    # the citation bundle may be absent, so every spec is read over the
    # demo's block-model dataset
    parser = _ini(spec_file)
    parser.remove_section("dataset")
    parser["dataset"] = dict(_ini(ROOT / "specs" / "sbm-demo.spec")["dataset"])
    copy = tmp_path / spec_file.name
    with copy.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    spec = parse_spec(copy)
    assert spec.name == parser["experiment"]["name"]
    if spec_file.name == "cora-gridsearch.spec":
        assert len(spec.grid) == 48
        assert {(m.heads, t.lr, t.dropout_p, t.weight_decay) for _, m, t in spec.grid} == {
            (h, lr, dp, wd) for h in (1, 4, 8) for lr in (0.01, 0.1)
            for dp in (0.0, 0.5) for wd in (0.0, 5e-5, 5e-4, 5e-3)}


def test_resolve_graph_caches(tmp_path):
    spec = parse_spec(write_spec(tmp_path))
    g1 = resolve_graph(spec.dataset, None)
    g2 = resolve_graph(spec.dataset, None)
    assert g1 is g2
    filtered = resolve_graph(spec.dataset, (("intra_id",), 1.0, 3))
    assert filtered.num_edges < g1.num_edges
    assert resolve_graph(spec.dataset, (("intra_id",), 1.0, 3)) is filtered
    resolve_graph.cache_clear()
    assert resolve_graph(spec.dataset, None) is not g1


def test_runs_reuse_the_graph_parse_spec_loaded(tmp_path, monkeypatch):
    spec = parse_spec(write_spec(tmp_path, name="edge-ablation", arch="gcn", heads=1,
                                 steps=2, splits=1))
    loaded = resolve_graph(spec.dataset, None)

    def generate(*args):
        raise AssertionError("the graph was generated again")

    monkeypatch.setattr(experiments, "sbm_generate", generate)
    seen = []
    make_splits = experiments.make_splits
    monkeypatch.setattr(experiments, "make_splits",
                        lambda graph, seed: seen.append(graph) or make_splits(graph, seed=seed))
    run_edge_ablation(spec, seed_base=0)
    assert seen[0] is loaded  # the untouched condition trains on the loaded graph


# ---------------------------------------------------------------------------
# report plumbing


def fake_report():
    runs = [RunRecord(run_id=f"m-s0r{i}", condition="m", split_idx=0, seed_idx=i,
                      split_seed=7919, train_seed=112648 + i,
                      metrics={"accuracy": 0.5 + 0.1 * i, "auroc_ent": 0.8})
            for i in range(3)]
    return RunReport(experiment="train-eval", version="0.1.0",
                     config={"experiment": "train-eval", "seed_base": 0},
                     runs=runs, aggregates=aggregate_runs(runs))


def test_aggregate_mean_std_recomputable():
    report = fake_report()
    agg = report.aggregates["m"]
    accs = np.array([0.5, 0.6, 0.7])
    assert agg["accuracy"]["mean"] == accs.mean()
    assert agg["accuracy"]["std"] == accs.std(ddof=0)
    same = np.array([0.8, 0.8, 0.8])
    assert agg["auroc_ent"]["std"] == same.std(ddof=0)


def test_jsonl_round_trip():
    report = fake_report()
    # every line is standalone JSON
    records = [json.loads(line) for line in report_to_jsonl(report).splitlines()]
    assert [r["kind"] for r in records] == ["header", "run", "run", "run", "aggregate"]
    assert records[0]["config"] == report.config
    assert [r["metrics"] for r in records[1:4]] == [r.metrics for r in report.runs]
    assert records[4]["metrics"] == report.aggregates["m"]


def test_csv_has_run_rows_plus_aggregate():
    lines = report_to_csv(fake_report()).strip().splitlines()
    assert len(lines) == 1 + 3 + 1  # header, three runs, one mean row
    assert lines[0].startswith("run_id,condition,")
    assert lines[-1].startswith("mean,m,")


def test_csv_empty_report_is_header_only():
    empty = RunReport(experiment="train-eval", version="0.1.0", config={},
                      runs=[], aggregates={})
    lines = report_to_csv(empty).strip().splitlines()
    assert lines == ["run_id,condition,split_idx,seed_idx,split_seed,train_seed"]


def test_export_report_writes_all_formats(tmp_path):
    paths = export_report(fake_report(), tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["report.csv", "report.jsonl", "report.txt"]
    for p in paths:
        assert p.stat().st_size > 0


def test_export_keeps_the_previous_file_when_a_render_raises(tmp_path, monkeypatch):
    from oodgat import experiments

    export_report(fake_report(), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def broken_lines():
        yield "threshold,tpr,fpr\n0.5,"  # a partly written file
        raise RuntimeError("render failed")

    monkeypatch.setattr(experiments, "report_to_jsonl", lambda report: "changed\n")
    monkeypatch.setattr(experiments, "report_to_csv",
                        lambda report: (_ for _ in ()).throw(RuntimeError("render failed")))
    with pytest.raises(RuntimeError, match="render failed"):
        export_report(fake_report(), tmp_path)
    with pytest.raises(RuntimeError, match="render failed"):
        experiments._write_atomic(tmp_path / "report.txt", broken_lines())
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)  # no temp file left behind
    assert after["report.jsonl"] == b"changed\n"  # written whole before the failure
    assert after["report.csv"] == before["report.csv"]
    assert after["report.txt"] == before["report.txt"]


def test_export_keeps_modes_and_writes_through_symlinks(tmp_path):
    export_report(fake_report(), tmp_path)
    (tmp_path / "report.csv").chmod(0o640)
    elsewhere = tmp_path / "kept"
    elsewhere.mkdir()
    (tmp_path / "report.txt").replace(elsewhere / "report.txt")
    (tmp_path / "report.txt").symlink_to(elsewhere / "report.txt")
    (elsewhere / "report.txt").write_text("old\n")
    export_report(fake_report(), tmp_path)
    assert (tmp_path / "report.csv").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "report.txt").is_symlink()
    assert (elsewhere / "report.txt").read_text() == report_text_table(fake_report())
    assert sorted(p.name for p in elsewhere.iterdir()) == ["report.txt"]


def test_text_table_lists_conditions():
    lines = report_text_table(fake_report()).splitlines()
    assert lines[0].startswith("condition")
    assert "accuracy" in lines[0]
    assert lines[2].startswith("m ") and "+-" in lines[2]


EDGE_FLOATS = (np.inf, -0.0, 5e-324, 1e16, 0.1, -np.inf, np.nan, 1.0 / 3.0, 0.0)


def test_curve_and_history_lines_format_values_as_fmt():
    points = np.array(EDGE_FLOATS).reshape(3, 3)
    assert "".join(experiments._curve_lines(points)).splitlines()[1:] == [
        ",".join(experiments._fmt(x) for x in row) for row in points]
    rows = [(7, *EDGE_FLOATS), (8, *(np.float64(x) for x in EDGE_FLOATS[::-1]))]
    assert "".join(experiments._history_lines(rows)).splitlines() == [
        ",".join(experiments.HISTORY_COLUMNS),
        *(",".join([str(r[0])] + [experiments._fmt(x) for x in r[1:]]) for r in rows)]
    assert list(experiments._history_lines([])) == [
        ",".join(experiments.HISTORY_COLUMNS) + "\n"]


# ---------------------------------------------------------------------------
# process memory and the worker pool


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# six (10000, 64) arrays live at once, freed, ten times; the minor page
# faults of those rounds after one warm-up round are printed
FAULT_PROBE = """import resource
import numpy as np
from oodgat.experiments import _retain_freed_memory
_retain_freed_memory()
_retain_freed_memory()
def rounds(k):
    for _ in range(k):
        held = [np.ones((10000, 64)) for _ in range(6)]
        del held
rounds(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(10)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_retained_memory_is_reused_without_page_faults():
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 100


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, maps in
    this process and starts nothing."""
    made: list[dict] = []

    def __init__(self, max_workers, initializer=None):
        RecordingPool.made.append({"max_workers": max_workers,
                                   "initializer": initializer})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.made = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_run_single", lambda task, out_dir: ("ran", task, out_dir))
    return RecordingPool.made


def test_pool_holds_no_more_workers_than_tasks(recording_pool):
    tasks = ["a", "b", "c", "d"]
    ran = [("ran", t, "out") for t in tasks]
    assert list(experiments.execute_tasks(tasks, workers=64, out_dir="out")) == ran
    assert list(experiments.execute_tasks(tasks, workers=3, out_dir="out")) == ran
    assert recording_pool == [
        {"max_workers": 4, "initializer": experiments._retain_freed_memory},
        {"max_workers": 3, "initializer": experiments._retain_freed_memory}]
    # one task, or one worker, runs in this process
    assert list(experiments.execute_tasks(["a"], workers=8)) == [("ran", "a", None)]
    assert list(experiments.execute_tasks(tasks, workers=1, out_dir="out")) == ran
    assert list(experiments.execute_tasks([], workers=8)) == []
    assert len(recording_pool) == 2


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(recording_pool, tmp_path, workers):
    records = experiments.execute_tasks(["a"], workers=workers)
    with pytest.raises(ConfigError, match="workers must be at least 1"):
        next(records)
    assert recording_pool == []
    spec = parse_spec(write_spec(tmp_path, steps=2))
    with pytest.raises(ConfigError, match="workers must be at least 1"):
        run_train_eval(spec, workers=workers, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_records_stream_as_the_runs_finish(monkeypatch):
    finished = []
    monkeypatch.setattr(experiments, "_run_single",
                        lambda task, out_dir: finished.append(task) or task)
    records = experiments.execute_tasks(["a", "b", "c"], workers=1)
    assert (next(records), finished) == ("a", ["a"])
    assert (next(records), finished) == ("b", ["a", "b"])


# ---------------------------------------------------------------------------
# runners


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def test_train_eval_runner(tmp_path, outdir):
    spec = parse_spec(write_spec(tmp_path, splits=2, seeds=2))
    report = run_train_eval(spec, seed_base=0, out_dir=outdir / "te")
    assert len(report.runs) == 4
    assert {r.condition for r in report.runs} == {"oodgat"}
    assert len({r.run_id for r in report.runs}) == 4
    first = report.runs[0].metrics
    for key in ("accuracy", "auroc_ent", "auroc_att", "joint_f1_ent", "fpr95_att"):
        assert key in first
    assert (outdir / "te" / "report.jsonl").is_file()
    assert (outdir / "te" / "history" / "oodgat-s0r0.csv").is_file()
    assert (outdir / "te" / "curves" / "oodgat-s0r0-roc.csv").is_file()
    assert (outdir / "te" / "curves" / "oodgat-s0r0-att-roc.csv").is_file()


def test_a_failed_run_file_write_leaves_no_report(tmp_path, monkeypatch):
    from oodgat import experiments

    write = experiments._write_atomic

    def failing_curve_write(path, lines):
        if path.parent.name == "curves":
            raise OSError("disk full")
        write(path, lines)

    spec = parse_spec(write_spec(tmp_path, splits=1, seeds=1, steps=3))
    monkeypatch.setattr(experiments, "_write_atomic", failing_curve_write)
    out = tmp_path / "fresh"
    with pytest.raises(OSError, match="disk full"):
        run_train_eval(spec, seed_base=0, out_dir=out)
    assert (out / "history").is_dir()
    assert not list(out.glob("report.*"))


def test_each_run_writes_its_files_before_the_next_task_starts(tmp_path, monkeypatch):
    spec = parse_spec(write_spec(tmp_path, splits=2, seeds=1, steps=3))
    out = tmp_path / "out"
    on_disk = []
    train = experiments.train

    def listing_train(*args):
        on_disk.append(sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")))
        return train(*args)

    monkeypatch.setattr(experiments, "train", listing_train)
    run_train_eval(spec, seed_base=0, workers=1, out_dir=out)
    assert on_disk == [[], ["curves/oodgat-s0r0-att-roc.csv", "curves/oodgat-s0r0-roc.csv",
                            "history/oodgat-s0r0.csv"]]


def test_train_eval_rerun_byte_identical(tmp_path):
    spec = parse_spec(write_spec(tmp_path, splits=1, seeds=2))
    a = report_to_jsonl(run_train_eval(spec, seed_base=3))
    b = report_to_jsonl(run_train_eval(spec, seed_base=3))
    assert a == b


def test_train_eval_workers_match_sequential(tmp_path):
    spec = parse_spec(write_spec(tmp_path, splits=2, seeds=1))
    seq = run_train_eval(spec, seed_base=1, workers=1)
    par = run_train_eval(spec, seed_base=1, workers=2)
    assert report_to_jsonl(seq) == report_to_jsonl(par)


def test_gcn_on_separable_sbm_detects_ood(tmp_path):
    # the block model keeps the held-out class inside the span of the
    # labeled-class feature directions, so its logits stay ambiguous
    spec = parse_spec(write_spec(tmp_path, arch="gcn", heads=1, hidden=16,
                                 steps=200, splits=2, seeds=2))
    report = run_train_eval(spec, seed_base=0)
    assert report.aggregates["gcn"]["auroc_ent"]["mean"] > 0.8
    assert report.aggregates["gcn"]["accuracy"]["mean"] > 0.9


def test_edge_ablation_conditions_and_identity_filter(tmp_path, outdir):
    # a reused oodgat-style [loss] section must not break the forced-GCN run
    spec_ab = parse_spec(write_spec(tmp_path, name="edge-ablation", arch="gcn",
                                    heads=1, splits=2, seeds=1, loss=OODGAT_LOSS))
    report = run_edge_ablation(spec_ab, seed_base=0, out_dir=outdir / "ea")
    conditions = {r.condition for r in report.runs}
    assert conditions == {"inter-0", "inter-0.5", "inter-1",
                          "intra_id-only", "intra_ood-only"}
    assert len(report.runs) == 5 * 2

    # the untouched condition reproduces plain train-eval numbers exactly
    spec_te = parse_spec(write_spec(tmp_path, name="train-eval", arch="gcn",
                                    heads=1, splits=2, seeds=1))
    te = run_train_eval(spec_te, seed_base=0)
    te_metrics = {r.run_id.split("-", 1)[1]: r.metrics for r in te.runs}
    for r in report.runs:
        if r.condition == "inter-0":
            tag = r.run_id.split("-s", 1)[1]
            assert r.metrics == te_metrics[f"s{tag}"]


def test_smoothing_roc_exports_consistent_curves(tmp_path, outdir):
    spec = parse_spec(write_spec(tmp_path, name="smoothing-roc", arch="gcn",
                                 heads=1, steps=40, splits=1, seeds=1,
                                 loss=OODGAT_LOSS))
    out = outdir / "roc"
    report = run_smoothing_roc(spec, seed_base=0, out_dir=out)
    assert {r.condition for r in report.runs} == {"mlp", "gcn"}
    for r in report.runs:
        rows = (out / "curves" / f"{r.run_id}-roc.csv").read_text().strip().splitlines()
        assert rows[0] == "threshold,tpr,fpr"
        pts = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
        assert (pts[0][1], pts[0][2]) == (0.0, 0.0)
        assert (pts[-1][1], pts[-1][2]) == (1.0, 1.0)
        area = np.trapezoid(pts[:, 1], pts[:, 2])
        assert area == pytest.approx(r.metrics["auroc_ent"], abs=1e-6)


def test_loss_ablation_rows(tmp_path, outdir):
    spec = parse_spec(write_spec(tmp_path, name="ablate-losses", splits=1, seeds=1))
    out = outdir / "ab"
    report = run_loss_ablation(spec, seed_base=0, out_dir=out)
    assert [r.condition for r in report.runs] == [
        "ce", "ce+con", "ce+ent", "ce+dis", "ce+con+ent", "ce+con+dis", "full"]
    # the CE-only row trains with every regularizer silent
    hist = (out / "history" / "ce-s0r0.csv").read_text().strip().splitlines()
    cols = hist[0].split(",")
    icon, ient, idis = cols.index("con"), cols.index("ent"), cols.index("dis")
    for ln in hist[1:]:
        parts = ln.split(",")
        assert (parts[icon], parts[ient], parts[idis]) == ("0.0", "0.0", "0.0")


def test_loss_ablation_requires_oodgat(tmp_path):
    with pytest.raises(ConfigError, match="ablate-losses requires an oodgat model"):
        parse_spec(write_spec(tmp_path, name="ablate-losses", arch="gcn", heads=1))


def test_gridsearch_ranks_cells(tmp_path, outdir):
    path = write_spec(tmp_path, name="gridsearch", arch="mlp", heads=1,
                      steps=30, splits=1, seeds=2,
                      extra="\n[grid]\nlr = 0.05, 1000.0\n")
    spec = parse_spec(path)
    report = run_gridsearch(spec, seed_base=0, out_dir=outdir / "gs")
    assert {r.condition for r in report.runs} == {"lr=0.05", "lr=1000.0"}
    assert len(report.runs) == 4  # 2 cells x 2 seeds
    cond, score = best_grid_condition(report)
    assert cond == "lr=0.05"
    assert score == report.aggregates["lr=0.05"]["best_val_composite"]["mean"]


def test_gridsearch_cells_train_differently(tmp_path, outdir):
    spec = parse_spec(write_spec(tmp_path, name="gridsearch", steps=6, splits=1, extra=(
        "\n[grid]\nbeta = 0.5, 2.0\n")))
    out = outdir / "gs-beta"
    report = run_gridsearch(spec, seed_base=0, out_dir=out)
    assert [r.condition for r in report.runs] == ["beta=0.5", "beta=2.0"]
    hist = [(out / "history" / f"{r.run_id}.csv").read_text() for r in report.runs]
    assert hist[0] != hist[1]


def test_gridsearch_needs_grid(tmp_path):
    with pytest.raises(ConfigError, match="gridsearch needs a \\[grid\\] section"):
        parse_spec(write_spec(tmp_path, name="gridsearch"))


def test_gen_sbm_round_trips_via_bundle(tmp_path):
    spec = parse_spec(write_spec(tmp_path, name="gen-sbm"))
    out = tmp_path / "bundle"
    meta = run_gen_sbm(spec, out)
    assert meta["nodes"] == 200
    assert (out / "edges.tsv").is_file()
    assert json.loads((out / "meta.json").read_text())["ood_classes"] == [3]

    loaded = load_graph_bundle(out, ood_classes={3})
    direct = resolve_graph(spec.dataset, None)
    np.testing.assert_array_equal(loaded.edges, direct.edges)
    np.testing.assert_array_equal(loaded.features, direct.features)
    np.testing.assert_array_equal(loaded.identity, direct.identity)


def test_gen_sbm_rejects_bundle_dataset(tmp_path):
    run_gen_sbm(parse_spec(write_spec(tmp_path, name="gen-sbm")),
                tmp_path / "bundle")
    bundle_spec = tmp_path / "b.spec"
    bundle_spec.write_text("""
[experiment]
name = gen-sbm
[dataset]
kind = bundle
path = bundle
ood_classes = 3
""", encoding="utf-8")
    with pytest.raises(ConfigError, match="kind=sbm"):
        parse_spec(bundle_spec)


# ---------------------------------------------------------------------------
# check batteries


def test_gradcheck_battery_all_pass():
    checks = gradcheck_battery(seed=0)
    names = [n for n, _ in checks]
    assert "full_oodgat_objective" in names
    assert len(names) >= 25
    for name, report in checks:
        assert report.passed, f"{name}: worst={report.worst}"


def test_homophily_check_small_run():
    stats = run_homophily_check(count=60, seed_base=1)
    assert stats["violations"] == 0
    assert stats["min_margin"] >= 0.0
