"""The names perfbench/tracing.py rebinds exist on the oodgat modules, and
the training loop calls them the way the tracer labels its spans.

The tracer times a phase by replacing a module-level name; a renamed or
bypassed name would leave its span silently empty. This module reads
perfbench/tracing.py and never edits it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from oodgat import training
from oodgat.graphs import SbmSpec, make_splits, sbm_generate
from oodgat.layers import ModelConfig
from oodgat.training import TrainConfig, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _ in tracing.SPANS],
                         ids=[f"{m}.{a}" for m, a, _ in tracing.SPANS])
def test_every_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"oodgat.{module}"), attribute))


@pytest.mark.parametrize("arch,heads", [("mlp", 1), ("gcn", 1), ("oodgat", 2)])
def test_train_makes_one_eval_forward_per_step(monkeypatch, arch, heads):
    spans = []
    forward = training.model_forward

    def labelled(*args, **kwargs):
        spans.append(tracing._forward_span(kwargs))
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "model_forward", labelled)
    graph = sbm_generate(SbmSpec(classes=4, nodes_per_class=40, p_intra=0.1, p_inter=0.01,
                                 feature_dim=4, class_mean_separation=2.0,
                                 ood_classes=frozenset({3})), seed=0)
    model = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=4)
    cfg = TrainConfig(dropout_p=0.3, max_steps=4, patience=4, seed=1)
    _, history = train(model, graph, make_splits(graph, seed=1), cfg)
    assert len(history.steps) == 4
    assert spans == ["layers.train_forward", "layers.eval_forward"] * 4
    assert np.isfinite(history.best_composite)
