"""Tests of the benchmark's graph generators and bundle writer.

Run with: python3 -m pytest -q perfbench/tests
"""

import math

import numpy as np
import pytest

import graphgen


def assert_simple(edges: np.ndarray, n: int) -> None:
    assert edges.dtype == np.int64
    assert np.all(edges[:, 0] < edges[:, 1]), "self-loop or unordered pair"
    assert edges.min() >= 0 and edges.max() < n
    assert len(np.unique(edges, axis=0)) == len(edges), "duplicate edge"


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_upper_pairs_enumerates_each_pair_once(n):
    i, j = graphgen._upper_pairs(n, np.arange(n * (n - 1) // 2))
    expected = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert list(zip(i.tolist(), j.tolist())) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_sbm_is_simple_and_within_binomial_expectation(seed):
    g = graphgen.sparse_sbm(seed)
    n = graphgen.SBM10K_CLASSES * graphgen.SBM10K_NODES_PER_CLASS
    assert g.num_nodes == n
    assert g.features.shape == (n, graphgen.SBM10K_FEATURES)
    assert_simple(g.edges, n)
    blocks = graphgen.block_pair_counts([graphgen.SBM10K_NODES_PER_CLASS]
                                        * graphgen.SBM10K_CLASSES,
                                        graphgen.SBM10K_P_INTRA, graphgen.SBM10K_P_INTER)
    mean = sum(pairs * p for _, _, pairs, p in blocks)
    sd = math.sqrt(sum(pairs * p * (1 - p) for _, _, pairs, p in blocks))
    assert abs(len(g.edges) - mean) < 5 * sd
    # intra-block edges follow p_intra alone
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    intra = [b for b in blocks if b[0] == b[1]]
    mean_in = sum(pairs * p for _, _, pairs, p in intra)
    sd_in = math.sqrt(sum(pairs * p * (1 - p) for _, _, pairs, p in intra))
    assert abs(int(same.sum()) - mean_in) < 5 * sd_in


def test_sparse_sbm_small_blocks_can_fill_completely():
    g = graphgen.sparse_sbm(3, classes=2, nodes_per_class=5, p_intra=1.0, p_inter=0.0,
                            feature_dim=2)
    assert_simple(g.edges, 10)
    assert len(g.edges) == 2 * 10   # two complete K5 blocks, nothing between


def test_same_seed_gives_the_same_bundle(tmp_path):
    for name, gen in (("sbm", graphgen.sparse_sbm), ("cora", graphgen.cora_shaped)):
        graphgen.write_bundle(gen(5), tmp_path / f"{name}-a")
        graphgen.write_bundle(gen(5), tmp_path / f"{name}-b")
        graphgen.write_bundle(gen(6), tmp_path / f"{name}-c")
        for f in ("edges.tsv", "features.csv", "labels.tsv"):
            a = (tmp_path / f"{name}-a" / f).read_bytes()
            assert a == (tmp_path / f"{name}-b" / f).read_bytes()
        assert (tmp_path / f"{name}-a" / "edges.tsv").read_bytes() \
            != (tmp_path / f"{name}-c" / "edges.tsv").read_bytes()


def test_bundle_round_trips_values(tmp_path):
    for name, gen in (("sbm", graphgen.sparse_sbm), ("cora", graphgen.cora_shaped)):
        g = gen(2)
        graphgen.write_bundle(g, tmp_path / name)
        feats = np.loadtxt(tmp_path / name / "features.csv", delimiter=",")
        assert np.array_equal(feats, g.features.astype(np.float64))
        edges = np.loadtxt(tmp_path / name / "edges.tsv", delimiter="\t", dtype=np.int64)
        assert np.array_equal(edges, g.edges)
        labels = np.loadtxt(tmp_path / name / "labels.tsv", dtype=np.int64)
        assert np.array_equal(labels, g.labels)


@pytest.mark.parametrize("seed", [0, 1])
def test_cora_shaped_sizes_density_and_classes(seed):
    g = graphgen.cora_shaped(seed)
    assert g.num_nodes == 2708
    assert g.features.shape == (2708, graphgen.CORA_FEATURES)
    assert set(np.unique(g.features).tolist()) == {0, 1}
    assert 0.011 < g.features.mean() < 0.015
    assert tuple(np.bincount(g.labels)) == graphgen.CORA_CLASS_SIZES
    assert len(g.edges) == graphgen.CORA_EDGES
    assert_simple(g.edges, g.num_nodes)
    same = (g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]).mean()
    assert 0.55 < same < 0.9
