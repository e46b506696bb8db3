"""The tracer against a tiny train-eval run of the real program."""

import json
from pathlib import Path

import pytest

experiments = pytest.importorskip("oodgat.experiments")
from oodgat import metrics, training  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

SPEC = """
[experiment]
name = train-eval
splits = 1
seeds_per_split = 1

[dataset]
kind = sbm
classes = 3
nodes_per_class = 40
p_intra = 0.2
p_inter = 0.02
feature_dim = 2
class_mean_separation = 3.0
ood_classes = 2
seed = 1

[model]
architecture = oodgat
heads = 2
hidden_dim = 4

[train]
max_steps = 3
patience = 3

[loss]
beta = 1.0
gamma = 0.05
zeta = 0.005
epsilon = 0.5
"""


def test_traced_run_matches_untraced_and_restores_names(tmp_path):
    spec_file = tmp_path / "tiny.spec"
    spec_file.write_text(SPEC, encoding="utf-8")
    modules = {"experiments": experiments, "training": training, "metrics": metrics}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.SPANS}
    tracer = tracing.Tracer(modules)

    spec = experiments.parse_spec(spec_file)
    experiments.run_train_eval(spec, out_dir=tmp_path / "plain")
    tracer.install()
    try:
        experiments.run_train_eval(spec, out_dir=tmp_path / "traced")
    finally:
        tracer.uninstall()

    assert all(getattr(modules[m], a) is fn for (m, a), fn in originals.items())
    assert (tmp_path / "plain" / "report.jsonl").read_bytes() \
        == (tmp_path / "traced" / "report.jsonl").read_bytes()
    layers = tracer.per_layer([1.0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    assert layers["training.steps"] == 3
    assert layers["layers.index_builds"] == 2
    assert layers["engine.tape_nodes"] > 10
    assert len(tracer.cpu["layers.train_forward"]) == 3
    assert len(tracer.cpu["layers.eval_forward"]) == 4   # 3 validations + 1 test
