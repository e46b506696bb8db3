"""Locality, permutation and restriction battery for every architecture.

Each model must respect its graph: an evaluation output at node v reads
only the features of v's 2-hop in-neighbourhood (v alone for mlp), it
moves with v when the nodes are relabelled, and the per-step validation
forward over the validation nodes' receptive field gives exactly the
full-graph forward's rows. The graphs are seeded random graphs with
isolated nodes and a hub; the attention models run with 1 to 3 heads,
and gcn runs once with a hidden layer wider than the features, so that
its first layer aggregates before the product with W.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from oodgat.errors import ConfigError
from oodgat.graphs import make_graph
from oodgat.layers import ModelConfig, init_params, model_forward, receptive_field
from oodgat.training import TrainConfig


def case(arch, heads, hidden=4):
    """One battery model. A hidden width of 8 over the 5 features runs
    gcn's first layer aggregate-first, (P X) W."""
    tag = f"{arch}-{heads}" if hidden == 4 else f"{arch}-{heads}-hidden{hidden}"
    return pytest.param(arch, heads, hidden, id=tag)


CASES = [case("mlp", 1), case("gcn", 1), case("gcn", 1, 8)] + [
    case(arch, k) for arch in ("gat", "oodgat") for k in (1, 2, 3)]
SEEDS = (0, 1, 2)


def battery_graph(seed, n=48):
    """Sparse random edges among most nodes, four isolated nodes, and one
    hub joined to about a quarter of the rest."""
    rng = np.random.default_rng(seed)
    isolated = set(rng.choice(n, 4, replace=False).tolist())
    linked = [v for v in range(n) if v not in isolated]
    hub = linked[0]
    edges = [(u, v) for i, u in enumerate(linked) for v in linked[i + 1:]
             if rng.random() < 0.05]
    edges += [(hub, v) for v in linked[1:] if rng.random() < 0.25]
    labels = rng.integers(0, 4, n)
    return make_graph(n, edges, rng.standard_normal((n, 5)), labels,
                      (labels == 3).astype(np.int8)), sorted(isolated), hub


def perturbed_params(arch, heads, num_features, seed, hidden=4):
    """Initial parameters moved off their start values, so that the oodgat
    scores (which start at 0.5 everywhere) depend on the features."""
    cfg = ModelConfig(architecture=arch, num_classes=3, heads=heads, hidden_dim=hidden)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, num_features, rng)
    for tensor in params.values():
        tensor.values = tensor.values + rng.normal(0.0, 0.5, tensor.shape)
    return cfg, params


def two_hop(graph, v):
    """v's 2-hop in-neighbourhood, v included, from the edge list."""
    near = {v}
    for _ in range(2):
        near |= {b for a, b in graph.edges if a in near} | {a for a, b in graph.edges
                                                            if b in near}
    return near


def outputs_at(out, rows):
    att = out.att_score
    return out.probs.values[rows], None if att is None else att[rows]


def assert_outputs_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch,heads,hidden", CASES)
def test_receptive_field_forward_equals_full_forward_at_its_nodes(arch, heads, hidden, seed,
                                                                  sparse):
    graph, isolated, hub = battery_graph(seed)
    cfg, params = perturbed_params(arch, heads, graph.num_features, seed, hidden)
    features = sp.csr_matrix(graph.features) if sparse else graph.features
    rng = np.random.default_rng(seed + 100)
    nodes = np.unique(np.concatenate([[hub, isolated[0]], rng.choice(graph.num_nodes, 9)]))
    field = receptive_field(graph.index, nodes, arch)
    full = model_forward(cfg, params, features, graph.index)
    restricted = model_forward(cfg, params, field.features_of(features), field)
    assert_outputs_equal(outputs_at(restricted, slice(None)), outputs_at(full, nodes))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch", ["mlp", "gcn", "oodgat"])
def test_receptive_field_reads_the_two_hop_neighbourhood(arch, seed):
    graph, isolated, hub = battery_graph(seed)
    nodes = np.array(sorted({hub, isolated[0], 5, 17}))
    field = receptive_field(graph.index, nodes, arch)
    np.testing.assert_array_equal(field.nodes, nodes)
    if arch == "mlp":
        np.testing.assert_array_equal(field.rows, nodes)
    else:
        expected = set().union(*(two_hop(graph, v) for v in nodes.tolist()))
        np.testing.assert_array_equal(field.rows, sorted(expected))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch,heads,hidden", CASES)
def test_eval_outputs_ignore_features_outside_the_two_hop_neighbourhood(arch, heads, hidden, seed):
    graph, isolated, hub = battery_graph(seed)
    cfg, params = perturbed_params(arch, heads, graph.num_features, seed, hidden)
    rng = np.random.default_rng(seed + 200)
    base = model_forward(cfg, params, graph.features, graph.index)
    for v in (hub, isolated[0], int(rng.integers(graph.num_nodes))):
        near = {v} if arch == "mlp" else two_hop(graph, v)
        far = np.array([u for u in range(graph.num_nodes) if u not in near], dtype=int)
        assert len(far)
        changed = graph.features.copy()
        changed[far] += rng.normal(0.0, 3.0, (len(far), graph.num_features))
        moved = model_forward(cfg, params, changed, graph.index)
        assert_outputs_equal(outputs_at(moved, [v]), outputs_at(base, [v]))
        # and the change does reach the nodes that read it
        assert not np.array_equal(moved.probs.values, base.probs.values)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch,heads,hidden", CASES)
def test_eval_outputs_move_with_relabelled_nodes(arch, heads, hidden, seed):
    graph, _, _ = battery_graph(seed)
    cfg, params = perturbed_params(arch, heads, graph.num_features, seed, hidden)
    perm = np.random.default_rng(seed + 300).permutation(graph.num_nodes)  # v -> perm[v]
    inverse = np.argsort(perm)
    relabelled = make_graph(graph.num_nodes, perm[graph.edges], graph.features[inverse],
                            graph.labels[inverse], graph.identity[inverse])
    base = model_forward(cfg, params, graph.features, graph.index)
    moved = model_forward(cfg, params, relabelled.features, relabelled.index)
    got, want = outputs_at(moved, perm), outputs_at(base, slice(None))
    # entries of a group are summed in source order, which the relabelling changes
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    if want[1] is not None:
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)


def test_receptive_field_forward_is_evaluation_only():
    graph, _, hub = battery_graph(0)
    cfg, params = perturbed_params("gcn", 1, graph.num_features, 0)
    field = receptive_field(graph.index, [hub], "gcn")
    with pytest.raises(ConfigError, match="evaluation"):
        model_forward(cfg, params, field.features_of(graph.features), field,
                      training=TrainConfig(), rng=np.random.default_rng(0))
    with pytest.raises(ConfigError, match="feature rows"):
        model_forward(cfg, params, graph.features, field)
