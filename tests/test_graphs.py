"""Graph store tests: bundle IO, homophily, partitioning, splits, generators.

Homophily expectations are hand-enumerated; the vectorized implementation
is also compared against a plain-loop reference on random graphs.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from oodgat.errors import GraphDataError
from oodgat.graphs import (
    SbmSpec,
    SplitAssignment,
    er_generate,
    filter_edges,
    identity_homophily,
    load_graph_bundle,
    make_graph,
    make_splits,
    node_homophily,
    partition_edges,
    relabel_for_training,
    save_graph_bundle,
    sbm_generate,
)


def triangle(labels, identity=(0, 0, 0)):
    return make_graph(3, [(0, 1), (1, 2), (0, 2)],
                      np.zeros((3, 2)), labels, identity)


def path3(identity=(0, 0, 1)):
    return make_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 1], identity)


def write_bundle(root, edges, features, labels):
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    (root / "features.csv").write_text(
        "".join(",".join(str(x) for x in row) + "\n" for row in features))
    (root / "labels.tsv").write_text("".join(f"{y}\n" for y in labels))


# ---------------------------------------------------------------------------
# construction


def test_make_graph_canonicalizes_edges():
    g = make_graph(3, [(2, 1), (0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 0], [0, 0, 0])
    np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])
    np.testing.assert_array_equal(g.degrees, [1, 2, 1])


def test_make_graph_rejects_inconsistent_identity():
    with pytest.raises(GraphDataError, match="both identity flags"):
        make_graph(2, [(0, 1)], np.zeros((2, 1)), [0, 0], [0, 1])


def test_make_graph_rejects_bad_shapes():
    with pytest.raises(GraphDataError, match="rows"):
        make_graph(3, [(0, 1)], np.zeros((2, 1)), [0, 0, 0], [0, 0, 0])
    with pytest.raises(GraphDataError, match="out of range"):
        make_graph(2, [(0, 5)], np.zeros((2, 1)), [0, 0], [0, 0])


# ---------------------------------------------------------------------------
# the feature form


def csr_parts(m):
    return [(a.dtype.str, a.tobytes()) for a in (m.data, m.indices, m.indptr)] + [m.shape]


def sparse_table(rng, rows, cols, density):
    return np.where(rng.random((rows, cols)) < density, rng.standard_normal((rows, cols)), 0.0)


def error_of(features, num_nodes):
    with pytest.raises(GraphDataError) as info:
        make_graph(num_nodes, [(0, 1)], features, np.zeros(num_nodes, int),
                   np.zeros(num_nodes, np.int8))
    return str(info.value)


@pytest.mark.parametrize("nonzero_rows, sparse", [(0, True), (4, True), (5, False), (20, False)])
def test_features_take_the_form_of_the_density_rule(nonzero_rows, sparse):
    # one nonzero per row: the density is nonzero_rows / 20, CSR below 1/4
    x = np.zeros((20, 1))
    x[:nonzero_rows] = np.arange(1, nonzero_rows + 1)[:, None]
    for given in (x, sp.csr_matrix(x), sp.coo_matrix(x)):
        g = make_graph(20, [(0, 1)], given, np.zeros(20, int), np.zeros(20, np.int8))
        assert sp.issparse(g.features) == sparse
        if sparse:
            assert csr_parts(g.features) == csr_parts(sp.csr_matrix(x))
        else:
            assert g.features.dtype == np.float64 and g.features.tobytes() == x.tobytes()


def test_a_sparse_input_is_kept_canonical_and_not_mutated():
    # duplicates, unsorted columns and a stored zero
    given = sp.csr_matrix((np.array([2.0, 1.0, 0.0, 0.5, 0.25]), np.array([3, 1, 2, 3, 0]),
                           np.array([0, 4, 4, 5, 5, 5])), shape=(5, 4))
    before = csr_parts(given)
    g = make_graph(5, [(0, 1)], given, np.zeros(5, int), np.zeros(5, np.int8))
    assert csr_parts(given) == before
    assert csr_parts(g.features) == csr_parts(sp.csr_matrix(given.toarray()))
    assert g.num_features == 4


def test_sparse_features_raise_the_dense_errors():
    x = np.zeros((6, 4))
    x[3, 2], x[5, 0] = np.nan, np.inf
    assert error_of(x, 6) == error_of(sp.csr_matrix(x), 6) \
        == "feature row 3 has a non-finite value"
    # finite duplicate entries whose sum overflows, as in their dense twin
    overflow = sp.coo_matrix(([1e308, 1e308], ([2, 2], [1, 1])), shape=(6, 4))
    assert error_of(overflow.toarray(), 6) == error_of(overflow, 6) \
        == "feature row 2 has a non-finite value"
    assert error_of(np.zeros((4, 3)), 5) == error_of(sp.csr_matrix((4, 3)), 5) \
        == "feature matrix must have 5 rows, got (4, 3)"


def test_sparse_features_save_as_their_dense_twin(tmp_path):
    rng = np.random.default_rng(3)
    x = sparse_table(rng, 30, 12, 0.1)
    x[4, 7] = 5e-324
    g = make_graph(30, [(0, 1), (2, 9)], x, np.arange(30) % 2, np.arange(30) % 2)
    assert sp.issparse(g.features)
    save_graph_bundle(g, tmp_path / "sparse")
    save_graph_bundle(replace(g, features=g.features.toarray()), tmp_path / "dense")
    for name in ("edges.tsv", "features.csv", "labels.tsv"):
        assert (tmp_path / "sparse" / name).read_bytes() == (tmp_path / "dense" / name).read_bytes()
    loaded = load_graph_bundle(tmp_path / "sparse", ood_classes={1})
    assert csr_parts(loaded.features) == csr_parts(g.features)


def test_sparse_features_are_written_one_row_at_a_time(tmp_path):
    rows, cols = 100, 2000
    g = make_graph(rows, [(0, 1)], sparse_table(np.random.default_rng(4), rows, cols, 0.01),
                   np.zeros(rows, int), np.zeros(rows, np.int8))
    tracemalloc.start()
    try:
        save_graph_bundle(g, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * cols * 8 / 4  # the dense twin alone is four times this


# ---------------------------------------------------------------------------
# bundle IO


def test_load_bundle_drops_self_loops_and_duplicates(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1), (1, 0), (2, 2)],
                 np.arange(6).reshape(3, 2), [0, 0, 1])
    g = load_graph_bundle(tmp_path / "b", ood_classes={1})
    assert g.num_edges == 1
    np.testing.assert_array_equal(g.edges, [[0, 1]])
    np.testing.assert_array_equal(g.identity, [0, 0, 1])


def test_load_bundle_errors(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1)], np.zeros((3, 2)), [0, 1, 2])
    with pytest.raises(GraphDataError, match="empty"):
        load_graph_bundle(tmp_path / "b", ood_classes=set())
    with pytest.raises(GraphDataError, match="unknown class"):
        load_graph_bundle(tmp_path / "b", ood_classes={7})
    with pytest.raises(GraphDataError, match="every class"):
        load_graph_bundle(tmp_path / "b", ood_classes={0, 1, 2})
    with pytest.raises(GraphDataError, match="missing bundle file"):
        load_graph_bundle(tmp_path / "nowhere", ood_classes={1})


def test_load_bundle_ragged_features(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [(0, 1)], np.zeros((2, 2)), [0, 1])
    (root / "features.csv").write_text("1.0,2.0\n3.0\n")
    with pytest.raises(GraphDataError, match="^features.csv: the number of columns changed "
                                             "from 2 to 1 at row 2;"):
        load_graph_bundle(root, ood_classes={1})


def test_load_bundle_without_nodes(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [], np.zeros((0, 2)), [])
    with pytest.raises(GraphDataError, match="labels.tsv lists no nodes"):
        load_graph_bundle(root, ood_classes={1})


def test_non_finite_features_are_rejected(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [(0, 1)], np.zeros((3, 2)), [0, 1, 1])
    (root / "features.csv").write_text("1.0,2.0\n1,nan\ninf,0\n")
    with pytest.raises(GraphDataError, match="feature row 1 has a non-finite value"):
        load_graph_bundle(root, ood_classes={1})
    with pytest.raises(GraphDataError, match="feature row 0 has a non-finite value"):
        make_graph(2, [(0, 1)], [[-np.inf, 0.0], [1.0, 2.0]], [0, 1], [0, 1])


def test_load_bundle_non_numeric_feature(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [(0, 1)], np.zeros((3, 2)), [0, 1, 1])
    (root / "features.csv").write_text("1.0,2.0\n3.0,abc\n5.0,6.0\n")
    with pytest.raises(GraphDataError, match="could not convert .* at row 1"):
        load_graph_bundle(root, ood_classes={1})


def test_load_bundle_gap_in_labels(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1)], np.zeros((2, 1)), [0, 2])
    with pytest.raises(GraphDataError, match="contiguous"):
        load_graph_bundle(tmp_path / "b", ood_classes={2})


def test_load_bundle_node_out_of_range(tmp_path):
    write_bundle(tmp_path / "b", [(0, 9)], np.zeros((2, 1)), [0, 1])
    with pytest.raises(GraphDataError, match="out of range"):
        load_graph_bundle(tmp_path / "b", ood_classes={1})


def test_bundle_round_trip_is_exact(tmp_path):
    spec = SbmSpec(classes=3, nodes_per_class=15, p_intra=0.3, p_inter=0.05,
                   feature_dim=4, class_mean_separation=1.7, ood_classes={2})
    g = sbm_generate(spec, seed=5)
    save_graph_bundle(g, tmp_path / "rt")
    g2 = load_graph_bundle(tmp_path / "rt", ood_classes={2})
    np.testing.assert_array_equal(g.edges, g2.edges)
    np.testing.assert_array_equal(g.labels, g2.labels)
    np.testing.assert_array_equal(g.identity, g2.identity)
    assert np.array_equal(g.features, g2.features)  # bit-exact via repr round-trip


def test_bundle_write_that_raises_keeps_the_previous_files(tmp_path):
    g = triangle([0, 1, 1])
    save_graph_bundle(g, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class RaisingRows:
        # yields one feature row, then fails mid-file
        def __iter__(self):
            yield np.array([5.0, 6.0])
            raise RuntimeError("row failed")

    changed = replace(g, edges=np.array([[0, 1]]), features=RaisingRows())
    with pytest.raises(RuntimeError, match="row failed"):
        save_graph_bundle(changed, tmp_path)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)  # no temp file left behind
    assert after["edges.tsv"] == b"0\t1\n"  # written whole before the failure
    assert after["features.csv"] == before["features.csv"]
    assert after["labels.tsv"] == before["labels.tsv"]


def test_graphs_compare_and_hash_by_identity():
    g, same_edges = triangle([0, 1, 1]), triangle([0, 1, 1])
    assert g != same_edges and g == g
    assert len({g, same_edges, g}) == 2
    assert hash(g) == hash(g)
    index = g.index
    assert g.index is index  # built once, then kept with the graph


# ---------------------------------------------------------------------------
# homophily


def loop_node_homophily(graph, labels):
    vals = []
    e = graph.edges
    for v in range(graph.num_nodes):
        nbrs = np.concatenate([e[e[:, 0] == v, 1], e[e[:, 1] == v, 0]])
        if len(nbrs) == 0:
            continue
        vals.append(np.mean(labels[nbrs] == labels[v]))
    return float(np.mean(vals))


def test_triangle_homophily_third():
    g = triangle([0, 0, 1])
    # per node: 1/2, 1/2, 0
    assert node_homophily(g, g.labels) == pytest.approx(1.0 / 3.0)


def test_homophily_degenerate_labelings():
    assert node_homophily(triangle([1, 1, 1]), [1, 1, 1]) == 1.0
    assert node_homophily(triangle([0, 1, 2]), [0, 1, 2]) == 0.0


def test_homophily_excludes_isolated_nodes():
    g = make_graph(3, [(0, 1)], np.zeros((3, 1)), [0, 0, 1], [0, 0, 0])
    assert node_homophily(g, g.labels) == 1.0  # node 2 is isolated, ignored


def test_homophily_rejects_wrong_length():
    with pytest.raises(GraphDataError, match="length"):
        node_homophily(triangle([0, 0, 1]), [0, 0])


def test_homophily_edgeless_graph_errors():
    g = make_graph(2, np.zeros((0, 2)), np.zeros((2, 1)), [0, 1], [0, 0])
    with pytest.raises(GraphDataError, match="edgeless"):
        node_homophily(g, g.labels)


def test_identity_homophily_triangle():
    g = triangle([0, 1, 2])
    h_prime = identity_homophily(g, {0: 0, 1: 0, 2: 1})
    assert h_prime == pytest.approx(1.0 / 3.0)
    assert h_prime >= node_homophily(g, g.labels)


def test_identity_homophily_constant_mapping():
    g = triangle([0, 1, 2])
    assert identity_homophily(g, {0: 0, 1: 0, 2: 0}) == 1.0


def test_identity_homophily_identity_mapping_on_binary_labels():
    g = triangle([0, 0, 1])
    assert identity_homophily(g, {0: 0, 1: 1}) == node_homophily(g, g.labels)


def test_identity_homophily_missing_class():
    g = triangle([0, 1, 2])
    with pytest.raises(GraphDataError, match="undefined"):
        identity_homophily(g, {0: 0, 1: 1})


def test_homophily_matches_loop_reference():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(5, 40))
        g = er_generate(n, p=0.2, num_classes=3, seed=int(rng.integers(1 << 30)))
        if g.num_edges == 0:
            continue
        labels = rng.integers(0, 3, size=n)
        assert node_homophily(g, labels) == pytest.approx(loop_node_homophily(g, labels))


def test_identity_bound_on_random_graphs():
    # spot check; the full 1000-graph sweep lives in the acceptance suite
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        n = int(rng.integers(10, 60))
        g = er_generate(n, p=0.15, num_classes=int(rng.integers(2, 6)),
                        seed=int(rng.integers(1 << 30)))
        if g.num_edges == 0:
            continue
        k = int(g.labels.max()) + 1
        mapping = {c: int(rng.integers(0, 2)) for c in range(k)}
        if len(set(mapping.values())) < 2 and k >= 2:
            mapping[0] = 1 - mapping[0]
        assert identity_homophily(g, mapping) >= node_homophily(g, g.labels) - 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# partition / filter


def test_partition_path_graph():
    part = partition_edges(path3())
    np.testing.assert_array_equal(part.intra_id, [0])   # edge (0,1)
    np.testing.assert_array_equal(part.inter, [1])      # edge (1,2)
    assert len(part.intra_ood) == 0


def test_partition_all_id():
    part = partition_edges(triangle([0, 0, 1]))
    assert len(part.inter) == 0 and len(part.intra_ood) == 0
    assert len(part.intra_id) == 3


def test_partition_disjoint_exhaustive_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = SbmSpec(classes=4, nodes_per_class=20, p_intra=0.2, p_inter=0.05,
                       feature_dim=2, class_mean_separation=1.0, ood_classes={3})
        g = sbm_generate(spec, seed=int(rng.integers(1 << 30)))
        part = partition_edges(g)
        merged = np.concatenate([part.intra_id, part.intra_ood, part.inter])
        assert len(merged) == g.num_edges
        assert len(np.unique(merged)) == g.num_edges


def test_filter_fraction_zero_is_identity():
    g = sbm_generate(SbmSpec(classes=3, nodes_per_class=20, p_intra=0.2, p_inter=0.05,
                             feature_dim=2, class_mean_separation=1.0, ood_classes={2}),
                     seed=9)
    out = filter_edges(g, keep=set(), removal_fraction=0.0, seed=1)
    np.testing.assert_array_equal(out.edges, g.edges)
    assert out.features is g.features


def test_filter_removes_inter_entirely():
    out = filter_edges(path3(), keep={"intra_id", "intra_ood"},
                       removal_fraction=1.0, seed=0)
    np.testing.assert_array_equal(out.edges, [[0, 1]])


def test_filter_half_fraction_counts():
    g = sbm_generate(SbmSpec(classes=4, nodes_per_class=30, p_intra=0.2, p_inter=0.08,
                             feature_dim=2, class_mean_separation=1.0, ood_classes={0, 3}),
                     seed=17)
    before = partition_edges(g)
    out = filter_edges(g, keep={"intra_id", "intra_ood"}, removal_fraction=0.5, seed=3)
    after = partition_edges(out)
    assert len(after.intra_id) == len(before.intra_id)
    assert len(after.intra_ood) == len(before.intra_ood)
    assert abs(len(after.inter) - len(before.inter) / 2) <= 0.5 + 1e-9


def test_filter_seed_determinism():
    g = sbm_generate(SbmSpec(classes=3, nodes_per_class=25, p_intra=0.2, p_inter=0.1,
                             feature_dim=2, class_mean_separation=1.0, ood_classes={1}),
                     seed=2)
    a = filter_edges(g, keep=set(), removal_fraction=0.4, seed=77)
    b = filter_edges(g, keep=set(), removal_fraction=0.4, seed=77)
    np.testing.assert_array_equal(a.edges, b.edges)


def test_filter_everything_yields_edgeless_graph():
    out = filter_edges(path3(), keep=set(), removal_fraction=1.0, seed=0)
    assert out.num_edges == 0
    np.testing.assert_array_equal(out.degrees, [0, 0, 0])


def test_filter_rejects_unknown_class():
    with pytest.raises(GraphDataError, match="unknown edge class"):
        filter_edges(path3(), keep={"intra"}, removal_fraction=0.5, seed=0)


# ---------------------------------------------------------------------------
# splits


def sbm_for_splits(seed=0):
    return sbm_generate(SbmSpec(classes=5, nodes_per_class=60, p_intra=0.1,
                                p_inter=0.02, feature_dim=3,
                                class_mean_separation=1.0, ood_classes={3, 4}),
                        seed=seed)


def test_make_splits_counts_and_disjointness():
    g = sbm_for_splits()
    s = make_splits(g, n_train_per_class=20, n_val_per_class=10, seed=1)
    id_classes = [0, 1, 2]
    assert s.train_mask.sum() == 20 * len(id_classes)
    for c in id_classes:
        in_class = (g.labels == c)
        assert (s.train_mask & in_class).sum() == 20
        assert (s.val_mask & in_class).sum() == 10
    assert not np.any(s.train_mask & g.identity.astype(bool))
    # validation holds 10 per ID class plus the same total count of OOD nodes
    assert (s.val_mask & (g.identity == 1)).sum() == 10 * len(id_classes)
    assert s.val_mask.sum() == 2 * 10 * len(id_classes)
    np.testing.assert_array_equal(s.test_mask, ~(s.train_mask | s.val_mask))


def test_make_splits_deterministic():
    g = sbm_for_splits()
    a = make_splits(g, seed=42)
    b = make_splits(g, seed=42)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    np.testing.assert_array_equal(a.val_mask, b.val_mask)
    c = make_splits(g, seed=43)
    assert np.any(a.train_mask != c.train_mask)


def test_make_splits_insufficient_population():
    g = sbm_generate(SbmSpec(classes=3, nodes_per_class=25, p_intra=0.2, p_inter=0.05,
                             feature_dim=2, class_mean_separation=1.0, ood_classes={2}),
                     seed=0)
    with pytest.raises(GraphDataError, match="needs 30"):
        make_splits(g, n_train_per_class=20, n_val_per_class=10, seed=0)


def test_make_splits_insufficient_ood():
    g = sbm_generate(SbmSpec(classes=4, nodes_per_class=40, p_intra=0.2, p_inter=0.05,
                             feature_dim=2, class_mean_separation=1.0, ood_classes={3}),
                     seed=0)
    with pytest.raises(GraphDataError, match="OOD"):
        make_splits(g, n_train_per_class=20, n_val_per_class=15, seed=0)


def test_split_masks_overlap_rejected():
    m = np.array([True, False])
    with pytest.raises(GraphDataError, match="overlap"):
        SplitAssignment(train_mask=m, val_mask=m, test_mask=~m)


# ---------------------------------------------------------------------------
# generators


def test_sbm_no_inter_edges_gives_perfect_identity_homophily():
    spec = SbmSpec(classes=4, nodes_per_class=30, p_intra=0.2, p_inter=0.0,
                   feature_dim=2, class_mean_separation=1.0, ood_classes={1})
    g = sbm_generate(spec, seed=3)
    mapping = {c: int(c in spec.ood_classes) for c in range(4)}
    assert identity_homophily(g, mapping) == 1.0
    assert node_homophily(g, g.labels) == 1.0


def test_sbm_equal_probabilities_homophily_near_chance():
    spec = SbmSpec(classes=4, nodes_per_class=500, p_intra=0.01, p_inter=0.01,
                   feature_dim=2, class_mean_separation=1.0, ood_classes={3})
    g = sbm_generate(spec, seed=8)
    assert node_homophily(g, g.labels) == pytest.approx(0.25, abs=0.05)


def test_sbm_separable_configuration_is_homophilic():
    spec = SbmSpec(classes=4, nodes_per_class=100, p_intra=0.05, p_inter=0.005,
                   feature_dim=8, class_mean_separation=2.0, ood_classes={3})
    g = sbm_generate(spec, seed=1)
    # expectation: 99*0.05 same-class vs 300*0.005 cross-class neighbors
    # per node, a ratio of 4.95/6.45 ~ 0.767; far above the 0.25 chance level
    h = node_homophily(g, g.labels)
    assert h > 0.7
    assert h == pytest.approx(0.767, abs=0.05)


def test_sbm_spec_validation():
    with pytest.raises(GraphDataError, match="degenerate"):
        SbmSpec(classes=0, nodes_per_class=10, p_intra=0.1, p_inter=0.0,
                feature_dim=2, class_mean_separation=1.0, ood_classes={0})
    with pytest.raises(GraphDataError, match="p_inter"):
        SbmSpec(classes=2, nodes_per_class=10, p_intra=0.1, p_inter=0.5,
                feature_dim=2, class_mean_separation=1.0, ood_classes={1})
    with pytest.raises(GraphDataError, match="proper nonempty subset"):
        SbmSpec(classes=2, nodes_per_class=10, p_intra=0.1, p_inter=0.05,
                feature_dim=2, class_mean_separation=1.0, ood_classes=set())
    with pytest.raises(GraphDataError, match="proper nonempty subset"):
        SbmSpec(classes=2, nodes_per_class=10, p_intra=0.1, p_inter=0.05,
                feature_dim=2, class_mean_separation=1.0, ood_classes={0, 1})


def test_sbm_determinism():
    spec = SbmSpec(classes=3, nodes_per_class=20, p_intra=0.2, p_inter=0.05,
                   feature_dim=4, class_mean_separation=1.5, ood_classes={2})
    a = sbm_generate(spec, seed=12)
    b = sbm_generate(spec, seed=12)
    np.testing.assert_array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)


def test_relabel_packs_id_classes_first():
    # classes {0,1,2,3,4}; OOD = {0, 3}; ID {1,2,4} must become {0,1,2}
    labels = np.array([0, 1, 2, 3, 4, 1, 2])
    identity = np.array([1, 0, 0, 1, 0, 0, 0], dtype=np.int8)
    g = make_graph(7, [(0, 1), (2, 3), (4, 5), (5, 6)],
                   np.zeros((7, 2)), labels, identity)
    out, class_map = relabel_for_training(g)
    assert class_map == {1: 0, 2: 1, 4: 2, 0: 3, 3: 4}
    np.testing.assert_array_equal(out.labels, [3, 0, 1, 4, 2, 0, 1])
    np.testing.assert_array_equal(out.identity, g.identity)
    np.testing.assert_array_equal(out.edges, g.edges)
    assert sorted(np.unique(out.labels[out.identity == 0])) == [0, 1, 2]


def test_relabel_is_identity_when_already_ordered():
    g = triangle([0, 1, 2], identity=(0, 0, 1))
    out, class_map = relabel_for_training(g)
    assert class_map == {0: 0, 1: 1, 2: 2}
    np.testing.assert_array_equal(out.labels, g.labels)
