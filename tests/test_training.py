"""Trainer tests: optimizer closed forms, early stopping, determinism,
and the end-to-end separable-graph pipeline."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oodgat.errors import ConfigError, TrainingAbort
from oodgat.engine import Tensor, backward
from oodgat.graphs import SbmSpec, make_splits, sbm_generate
from oodgat.layers import ModelConfig, ModelOutputs, ReceptiveField, graph_index, model_forward
from oodgat.losses import LossBreakdown, LossWeights
from oodgat import training
from oodgat.training import (
    TrainConfig,
    adam_step,
    init_adam,
    train,
    validation_scores,
)


def one_param(values):
    p = {"w": Tensor(np.asarray(values, float), requires_grad=True)}
    return p, init_adam(p)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_leaves_params_alone():
    params, state = one_param([[1.0, -2.0]])
    adam_step(params, {"w": np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0, t=1)
    np.testing.assert_array_equal(params["w"].values, [[1.0, -2.0]])


def test_adam_missing_gradient_means_zero():
    params, state = one_param([[3.0]])
    adam_step(params, {}, state, lr=0.1, weight_decay=0.0, t=1)
    np.testing.assert_array_equal(params["w"].values, [[3.0]])


def test_adam_first_step_closed_form():
    # bias correction cancels the moment damping exactly at t=1, so the
    # update is lr * g / (|g| + eps)
    params, state = one_param([[1.0, 1.0]])
    g = np.array([[2.0, -3.0]])
    adam_step(params, {"w": g}, state, lr=0.1, weight_decay=0.0, t=1)
    np.testing.assert_allclose(params["w"].values, [[0.9, 1.1]], atol=1e-8)


def test_adam_unit_step_property():
    # constant gradient: the per-step displacement converges to lr
    params, state = one_param([[0.0]])
    g = np.array([[3.0]])
    prev = 0.0
    for t in range(1, 201):
        adam_step(params, {"w": g}, state, lr=0.05, weight_decay=0.0, t=t)
        delta = prev - params["w"].values[0, 0]
        prev = params["w"].values[0, 0]
    assert delta == pytest.approx(0.05, rel=1e-3)


def test_adam_weight_decay_shrinks_params():
    params, state = one_param([[1.0, -1.0]])
    magnitudes = [np.abs(params["w"].values).copy()]
    for t in range(1, 51):
        adam_step(params, {"w": np.zeros((1, 2))}, state,
                  lr=0.01, weight_decay=0.01, t=t)
        magnitudes.append(np.abs(params["w"].values).copy())
    diffs = np.diff(np.array([m.max() for m in magnitudes]))
    assert np.all(diffs < 0)
    assert np.all(np.abs(params["w"].values) > 0)  # no overshoot at this lr


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(4)
    params, state = one_param(rng.standard_normal((3, 2)))
    ref = params["w"].values.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 9):
        g = rng.standard_normal((3, 2))
        adam_step(params, {"w": g.copy()}, state, lr=0.02, weight_decay=0.1, t=t)
        ge = g + 0.1 * ref
        m = 0.9 * m + 0.1 * ge
        v = 0.999 * v + 0.001 * ge * ge
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref = ref - 0.02 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(params["w"].values, ref, atol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    params, state = one_param([[1.0]])
    with pytest.raises(TrainingAbort) as info:
        adam_step(params, {"w": np.array([[np.nan]])}, state,
                  lr=0.1, weight_decay=0.0, t=3)
    assert info.value.step == 3


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_p=1.0)


# ---------------------------------------------------------------------------
# training loop fixtures


def small_sbm(seed=0, classes=4, ood=(3,), per_class=50, sep=2.0):
    spec = SbmSpec(classes=classes, nodes_per_class=per_class,
                   p_intra=0.1, p_inter=0.01, feature_dim=8,
                   class_mean_separation=sep, ood_classes=frozenset(ood))
    graph = sbm_generate(spec, seed=seed)
    return graph, make_splits(graph, seed=seed)


@pytest.fixture(scope="module")
def sbm_case():
    return small_sbm()


def test_patience_one_constant_metric_stops_at_step_two(sbm_case, monkeypatch):
    monkeypatch.setattr(training, "validation_scores", lambda *a: (0.5, 0.0))
    graph, splits = sbm_case
    cfg = TrainConfig(lr=0.01, weight_decay=0.0, max_steps=100, patience=1, seed=0)
    model = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=8)
    _, history = train(model, graph, splits, cfg)
    assert len(history.steps) == 2
    assert history.best_step == 1


def test_same_seed_bitwise_identical_history(sbm_case):
    graph, splits = sbm_case
    cfg = TrainConfig(lr=0.01, dropout_p=0.4, drop_edge_p=0.3,
                      max_steps=25, patience=25, seed=11,
                      loss_weights=LossWeights(beta=1.0, gamma=0.05, zeta=0.01))
    model = ModelConfig(architecture="oodgat", num_classes=3, heads=2, hidden_dim=8)
    m1, h1 = train(model, graph, splits, cfg)
    m2, h2 = train(model, graph, splits, cfg)
    assert h1.steps == h2.steps
    assert h1.best_step == h2.best_step
    assert m1.params.keys() == m2.params.keys()
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k].values, m2.params[k].values)


def test_different_seeds_differ(sbm_case):
    graph, splits = sbm_case
    model = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=8)
    _, h1 = train(model, graph, splits, TrainConfig(max_steps=5, seed=1))
    _, h2 = train(model, graph, splits, TrainConfig(max_steps=5, seed=2))
    assert h1.steps != h2.steps


def test_best_step_maximizes_composite_and_checkpoint_restores(sbm_case):
    graph, splits = sbm_case
    cfg = TrainConfig(lr=0.05, weight_decay=0.0, max_steps=40, patience=40, seed=3)
    model = ModelConfig(architecture="gcn", num_classes=3, hidden_dim=8)
    trained, history = train(model, graph, splits, cfg)
    composites = [s.composite for s in history.steps]
    assert history.best_composite == max(composites)
    assert history.best_step == composites.index(max(composites)) + 1
    # re-running a full-graph evaluation from the returned params
    # reproduces the recorded best validation numbers exactly
    out = model_forward(trained.config, trained.params, graph.features,
                        graph_index(graph))
    val = splits.val_mask
    acc, det = validation_scores(ModelOutputs(probs=Tensor(out.probs.values[val])),
                                 graph.labels[val], graph.identity[val])
    best = history.steps[history.best_step - 1]
    assert acc == best.val_accuracy
    assert det == best.val_auroc


def test_early_stop_respects_patience(sbm_case):
    graph, splits = sbm_case
    cfg = TrainConfig(lr=0.05, weight_decay=0.0, max_steps=500, patience=10, seed=0)
    model = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=8)
    _, history = train(model, graph, splits, cfg)
    last = history.steps[-1].step
    assert last < 500  # it stopped early on this easy problem
    assert last - history.best_step == 10
    assert history.best_step <= last


def test_abort_carries_breakdown(sbm_case, monkeypatch):
    graph, splits = sbm_case

    def explode(*args, **kwargs):
        bad = LossBreakdown(ce=float("nan"), con=0.0, ent=0.0, dis=0.0,
                            decay=1.0, total=float("nan"))
        return Tensor([[float("nan")]]), bad

    monkeypatch.setattr(training, "compute_objective", explode)
    model = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=8)
    with pytest.raises(TrainingAbort) as info:
        train(model, graph, splits, TrainConfig(max_steps=10, seed=0))
    assert info.value.step == 1
    assert np.isnan(info.value.breakdown["total"])


def test_training_ce_mostly_nonincreasing_over_windows(sbm_case):
    # with no regularizers and no dropout this is plain CE descent; allow
    # a few noisy violations over 50-step windows
    graph, splits = sbm_case
    cfg = TrainConfig(lr=0.01, weight_decay=0.0, max_steps=150,
                      patience=150, seed=0)
    model = ModelConfig(architecture="oodgat", num_classes=3, heads=2,
                        hidden_dim=8)
    _, history = train(model, graph, splits, cfg)
    ce = np.array([s.losses.ce for s in history.steps])
    violations = (ce[50:] > ce[:-50]).mean()
    assert violations <= 0.05


def test_oodgat_on_separable_sbm_reaches_high_auroc():
    spec = SbmSpec(classes=6, nodes_per_class=100, p_intra=0.05, p_inter=0.005,
                   feature_dim=16, class_mean_separation=2.0,
                   ood_classes=frozenset({4, 5}))
    graph = sbm_generate(spec, seed=1)
    splits = make_splits(graph, seed=1)
    cfg = TrainConfig(lr=0.01, weight_decay=5e-4, dropout_p=0.5,
                      drop_edge_p=0.0, max_steps=400, patience=150, seed=1,
                      loss_weights=LossWeights(beta=2.0, gamma=0.05,
                                               zeta=0.005, epsilon=0.6))
    model = ModelConfig(architecture="oodgat", num_classes=4, heads=4, hidden_dim=16)
    _, history = train(model, graph, splits, cfg)
    assert max(s.val_auroc for s in history.steps) > 0.9


def test_step_records_are_one_based_and_contiguous(sbm_case):
    graph, splits = sbm_case
    model = ModelConfig(architecture="mlp", num_classes=3, hidden_dim=8)
    _, history = train(model, graph, splits, TrainConfig(max_steps=7, seed=0))
    assert [s.step for s in history.steps] == list(range(1, 8))


@pytest.mark.parametrize("arch,nodes", [("oodgat", [18, 19]), ("gat", [10, 10])])
def test_one_step_tape_length_on_the_sbm_demo_graph(monkeypatch, arch, nodes):
    # the quick-start spec, two steps: oodgat with all three regularizers
    # (at step 1 every score is 0.5, so the entropy term selects no node
    # and records nothing), gat on cross-entropy alone, which trains on the
    # training nodes' receptive field and keeps two layers' rows
    from oodgat.experiments import parse_spec, resolve_graph

    spec = parse_spec(Path(__file__).resolve().parents[1] / "specs" / "sbm-demo.spec")
    graph = resolve_graph(spec.dataset, None)
    cfg = replace(spec.train, max_steps=2)
    if arch == "gat":
        cfg = replace(cfg, loss_weights=LossWeights())
    lengths = []

    def counting_backward(loss):
        lengths.append(loss.tape_id + 1)
        return backward(loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    train(replace(spec.model, architecture=arch), graph, make_splits(graph, seed=0), cfg)
    assert lengths == nodes


@pytest.mark.parametrize("arch,weights,drop_edge_p,on_field", [
    ("mlp", LossWeights(), 0.0, True),
    ("gcn", LossWeights(), 0.0, True),
    ("gat", LossWeights(), 0.0, True),
    ("oodgat", LossWeights(), 0.0, True),
    ("oodgat", LossWeights(beta=1.0), 0.0, False),
    ("oodgat", LossWeights(gamma=0.05), 0.0, False),
    ("oodgat", LossWeights(zeta=0.005), 0.0, False),
    ("gcn", LossWeights(), 0.5, False),
    ("oodgat", LossWeights(), 0.5, False),
])
def test_only_cross_entropy_runs_without_drop_edge_train_on_the_field(
        monkeypatch, sbm_case, arch, weights, drop_edge_p, on_field):
    graph, splits = sbm_case
    model = ModelConfig(architecture=arch, num_classes=3, hidden_dim=8)
    cfg = TrainConfig(dropout_p=0.5, drop_edge_p=drop_edge_p, max_steps=2,
                      loss_weights=weights)
    assert training.trains_on_field(model, cfg) == on_field
    indices = []

    def recording_forward(*args, **kwargs):
        if kwargs.get("training") is not None:
            indices.append(args[3])
        return model_forward(*args, **kwargs)

    monkeypatch.setattr(training, "model_forward", recording_forward)
    train(model, graph, splits, cfg)
    assert len(indices) == 2
    assert all(isinstance(index, ReceptiveField) == on_field for index in indices)
    if on_field:
        np.testing.assert_array_equal(indices[0].nodes, np.flatnonzero(splits.train_mask))


@pytest.mark.parametrize("arch", ["mlp", "gcn", "gat", "oodgat"])
def test_field_training_follows_full_graph_training(monkeypatch, sbm_case, arch):
    # the same draws and the same step-1 loss; later steps differ at most
    # in float order, as the weight gradients sum over fewer rows
    graph, splits = sbm_case
    model = ModelConfig(architecture=arch, num_classes=3, hidden_dim=8)
    cfg = TrainConfig(dropout_p=0.5, max_steps=6, seed=4)
    _, on_field = train(model, graph, splits, cfg)
    monkeypatch.setattr(training, "trains_on_field", lambda *args: False)
    _, whole = train(model, graph, splits, cfg)
    assert on_field.steps[0].losses == whole.steps[0].losses
    np.testing.assert_allclose([s.losses.ce for s in on_field.steps],
                               [s.losses.ce for s in whole.steps], rtol=1e-9)
