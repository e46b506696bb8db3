"""Command-line behavior: exit codes, error lines, and output files."""

import argparse
import configparser
from pathlib import Path
from types import SimpleNamespace

import pytest

from oodgat import experiments
from oodgat.cli import build_parser, main
from oodgat.errors import TrainingAbort

TINY_SPEC = """\
[experiment]
name = {name}
splits = 1
seeds_per_split = 1

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
hidden_dim = 8

[train]
max_steps = 15
patience = 15
{extra}
"""


def tiny_spec(tmp_path, name="train-eval", arch="oodgat", heads=2, extra=""):
    path = tmp_path / "exp.spec"
    path.write_text(TINY_SPEC.format(name=name, arch=arch, heads=heads,
                                     extra=extra), encoding="utf-8")
    return path


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for cmd in ("train-eval", "edge-ablation", "smoothing-roc", "ablate-losses",
                "gridsearch", "gen-sbm", "gradcheck", "homophily-check"):
        args = parser.parse_args([cmd])
        assert args.command == cmd
        assert args.workers == 1 and args.seed_base == 0


def test_parser_subcommands_are_the_experiment_names():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == (*experiments.RUNNERS, "gen-sbm", "gradcheck",
                                  "homophily-check")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["fly-to-moon"])
    assert exc.value.code == 2


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck: PASS (0 failures)" in out
    assert "PASS full_oodgat_objective" in out
    assert "FAIL" not in out


def test_gradcheck_failure_exit_code(monkeypatch, capsys):
    fake = [("broken_op", SimpleNamespace(passed=False, worst=0.5, tol=1e-6))]
    monkeypatch.setattr("oodgat.cli.gradcheck_battery", lambda seed: fake)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL broken_op" in out
    assert "gradcheck: FAIL (1 failures)" in out


def test_homophily_check_passes(capsys):
    assert main(["homophily-check"]) == 0
    out = capsys.readouterr().out
    assert "homophily-check: PASS count=1000 violations=0" in out


def test_homophily_check_failure_exit_code(monkeypatch, capsys):
    stats = {"count": 10, "violations": 2, "min_margin": -0.25}
    monkeypatch.setattr("oodgat.cli.run_homophily_check", lambda seed_base: stats)
    assert main(["homophily-check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_spec_is_single_error_line(capsys):
    assert main(["train-eval", "--out", "somewhere"]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR ConfigError: --spec is required for train-eval\n"


def test_missing_out_is_single_error_line(tmp_path, capsys):
    spec = tiny_spec(tmp_path)
    assert main(["train-eval", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR ConfigError: --out is required for train-eval\n"


def test_broken_spec_reports_error_kind(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("[experiment]\nname = train-eval\n", encoding="utf-8")
    code = main(["train-eval", "--spec", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ConfigError: ")
    assert err.count("\n") == 1


def test_spec_that_is_not_utf8_is_single_error_line(tmp_path, capsys):
    spec = tiny_spec(tmp_path)
    spec.write_bytes(b"# caf\xe9\n" + spec.read_bytes())
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR ConfigError: bad spec file {spec}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [("model", "activation", "elu"),
                                                 ("loss", "detach_consistency_target", "false")])
def test_removed_spec_keys_are_single_error_line(tmp_path, capsys, section, key, value):
    spec = tiny_spec(tmp_path, extra="[loss]\n")
    spec.write_text(spec.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR ConfigError: [{section}] has unknown key(s): ['{key}']\n")
    assert not out.exists()


DEMO_SPEC = Path(__file__).resolve().parents[1] / "specs" / "sbm-demo.spec"


def _demo_numbers():
    """(section, key) of every scalar number in the demo spec."""
    parser = configparser.ConfigParser()
    parser.read_string(DEMO_SPEC.read_text(encoding="utf-8"))
    found = []
    for section in parser.sections():
        for key, value in parser.items(section):
            try:
                float(value)
            except ValueError:
                continue
            found.append((section, key))
    return found


@pytest.mark.parametrize("section, key", _demo_numbers(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_non_number_in_demo_spec_is_single_error_line(tmp_path, capsys, section, key):
    parser = configparser.ConfigParser()
    parser.read_string(DEMO_SPEC.read_text(encoding="utf-8"))
    parser[section][key] = "5o"
    spec = tmp_path / "demo.spec"
    with spec.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ConfigError: ")
    assert err.count("\n") == 1
    assert f" {key}: " in err
    assert not out.exists()


@pytest.mark.parametrize("line, written, message", [
    ("max_steps = 15", "max_steps = 1_0", "max_steps: expected int, got '1_0'"),
    ("patience = 15", "patience = 15\nlr = ٠.١", "lr: expected float, got '٠.١'"),
], ids=["underscore", "arabic-indic-digits"])
def test_non_ascii_or_underscored_number_is_single_error_line(tmp_path, capsys, line, written,
                                                              message):
    spec = tiny_spec(tmp_path)
    spec.write_text(spec.read_text(encoding="utf-8").replace(line, written), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERROR ConfigError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_single_error_line(tmp_path, capsys, workers):
    out = tmp_path / "o"
    code = main(["train-eval", "--spec", str(tiny_spec(tmp_path)), "--out", str(out),
                 "--workers", workers])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"ERROR ConfigError: workers must be at least 1, got {workers}\n"
    assert not out.exists()


def missing_bundle_spec(tmp_path):
    """A spec whose bundle is absent, so any flag error it reports was found
    before the spec loaded."""
    spec = tiny_spec(tmp_path)
    text = spec.read_text()
    dataset = text[text.index("[dataset]"):text.index("[model]")]
    spec.write_text(text.replace(dataset, "[dataset]\nkind = bundle\npath = no-such-bundle\n"
                                          "ood_classes = 2\n\n"))
    return spec


def test_missing_out_is_reported_before_the_spec_loads(tmp_path, capsys):
    assert main(["train-eval", "--spec", str(missing_bundle_spec(tmp_path))]) == 2
    assert capsys.readouterr().err == "ERROR ConfigError: --out is required for train-eval\n"


@pytest.mark.parametrize("below", ["", "run/a"])
@pytest.mark.parametrize("command", ["train-eval", "gen-sbm"])
def test_out_naming_a_file_is_single_error_line(tmp_path, capsys, command, below):
    # a spec that runs: the file, as --out or above it, is refused before
    # any run trains
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    out = taken / below if below else taken
    assert main([command, "--spec", str(tiny_spec(tmp_path, name=command)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"ERROR ConfigError: --out {out}: {taken} exists and is not "
                            "a directory\n")
    assert captured.out == ""
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_workers_below_one_is_reported_before_the_spec_loads(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["train-eval", "--spec", str(missing_bundle_spec(tmp_path)), "--out", str(out),
                 "--workers", "0"])
    assert code == 2
    assert capsys.readouterr().err == "ERROR ConfigError: workers must be at least 1, got 0\n"
    assert not out.exists()


def test_splits_that_cannot_be_drawn_fail_before_the_pool_starts(tmp_path, capsys,
                                                                  monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("oodgat.experiments.ProcessPoolExecutor", no_pool)
    spec = tiny_spec(tmp_path)
    # two runs, so that a pool of two would start if the spec loaded
    spec.write_text(spec.read_text().replace("nodes_per_class = 50", "nodes_per_class = 20")
                    .replace("splits = 1", "splits = 2"))
    out = tmp_path / "o"
    code = main(["train-eval", "--spec", str(spec), "--out", str(out), "--workers", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "ERROR GraphDataError: class 0 has 20 nodes, needs 30 for train+val\n"
    assert not out.exists()


@pytest.mark.parametrize("command, seed", [
    ("train-eval", "-7920"), ("train-eval", "-1"), ("gen-sbm", "-1"),
    ("gradcheck", "-1"), ("homophily-check", "-1")])
def test_negative_seed_base_is_single_error_line(tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    code = main([command, "--spec", str(tiny_spec(tmp_path, name=command)), "--out", str(out),
                 f"--seed-base={seed}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"ERROR ConfigError: --seed-base must be >= 0, got {seed}\n"
    assert captured.out == ""
    assert not out.exists()


def test_negative_dataset_seed_is_single_error_line(tmp_path, capsys, monkeypatch):
    def generate(*args):
        raise AssertionError("the graph was generated")

    monkeypatch.setattr("oodgat.experiments.sbm_generate", generate)
    spec = tiny_spec(tmp_path)
    spec.write_text(spec.read_text().replace("seed = 7", "seed = -2"))
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "ERROR ConfigError: [dataset] seed must be >= 0, got -2\n"
    assert not out.exists()


def test_spec_name_must_match_subcommand(tmp_path, capsys):
    spec = tiny_spec(tmp_path, name="gridsearch")
    code = main(["train-eval", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "was requested" in capsys.readouterr().err


def test_train_eval_end_to_end(tmp_path, capsys):
    spec = tiny_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("condition")
    assert "wrote 1 run records to" in printed
    assert (out / "report.jsonl").is_file()
    assert (out / "report.csv").is_file()
    assert (out / "report.txt").is_file()
    assert (out / "history" / "oodgat-s0r0.csv").is_file()
    assert (out / "curves" / "oodgat-s0r0-roc.csv").is_file()


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_output_tree_is_the_same_for_one_and_two_workers(tmp_path, capsys):
    spec = tiny_spec(tmp_path)
    spec.write_text(spec.read_text().replace("splits = 1", "splits = 2"))
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert main(["train-eval", "--spec", str(spec), "--out", str(out),
                     "--workers", str(workers)]) == 0
    capsys.readouterr()
    one, two = (tree(out) for out in outs)
    assert sorted(one) == ["curves/oodgat-s0r0-att-roc.csv", "curves/oodgat-s0r0-roc.csv",
                           "curves/oodgat-s1r0-att-roc.csv", "curves/oodgat-s1r0-roc.csv",
                           "history/oodgat-s0r0.csv", "history/oodgat-s1r0.csv",
                           "report.csv", "report.jsonl", "report.txt"]
    assert one == two


def test_a_failed_run_keeps_the_finished_runs_files_and_writes_no_report(
        tmp_path, capsys, monkeypatch):
    train = experiments.train
    calls = []

    def second_run_aborts(model, graph, splits, cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise TrainingAbort("non-finite loss at step 3", step=3)
        return train(model, graph, splits, cfg)

    monkeypatch.setattr(experiments, "train", second_run_aborts)
    spec = tiny_spec(tmp_path)
    spec.write_text(spec.read_text().replace("splits = 1", "splits = 2"))
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ERROR TrainingAbort: [oodgat-s1r0] non-finite loss at step 3\n"
    assert captured.out == ""
    assert sorted(tree(out)) == ["curves/oodgat-s0r0-att-roc.csv", "curves/oodgat-s0r0-roc.csv",
                                 "history/oodgat-s0r0.csv"]


def test_a_failed_rerun_removes_the_earlier_report(tmp_path, capsys, monkeypatch):
    spec = tiny_spec(tmp_path)
    spec.write_text(spec.read_text().replace("splits = 1", "splits = 2"))
    out = tmp_path / "o"
    assert main(["train-eval", "--spec", str(spec), "--out", str(out)]) == 0
    train = experiments.train
    calls = []

    def second_run_aborts(model, graph, splits, cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise TrainingAbort("non-finite loss at step 3", step=3)
        return train(model, graph, splits, cfg)

    monkeypatch.setattr(experiments, "train", second_run_aborts)
    assert main(["train-eval", "--spec", str(spec), "--out", str(out),
                 "--seed-base", "5"]) == 2
    capsys.readouterr()
    # the first run's files are the second call's; the second run's are stale
    # and no report vouches for them
    assert sorted(tree(out)) == ["curves/oodgat-s0r0-att-roc.csv", "curves/oodgat-s0r0-roc.csv",
                                 "curves/oodgat-s1r0-att-roc.csv", "curves/oodgat-s1r0-roc.csv",
                                 "history/oodgat-s0r0.csv", "history/oodgat-s1r0.csv"]


def test_gen_sbm_end_to_end(tmp_path, capsys):
    spec = tiny_spec(tmp_path, name="gen-sbm")
    out = tmp_path / "bundle"
    assert main(["gen-sbm", "--spec", str(spec), "--out", str(out)]) == 0
    assert "gen-sbm: wrote 200 nodes" in capsys.readouterr().out
    for name in ("edges.tsv", "features.csv", "labels.tsv", "meta.json"):
        assert (out / name).is_file()


def test_gridsearch_prints_best_cell(tmp_path, capsys):
    spec = tiny_spec(tmp_path, name="gridsearch", arch="mlp", heads=1,
                     extra="\n[grid]\nlr = 0.05, 5.0\n")
    out = tmp_path / "gs"
    assert main(["gridsearch", "--spec", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "best cell: lr=" in printed
    assert "wrote 2 run records to" in printed
