"""The byte reader for bundle files (`graphs._int_table`) against the line
readers it stands in front of.

A canonical integer table must load bit for bit as the line readers load
it; any other file must be declined, so its values or its error message
stay the line readers'. The guard at the end loads the benchmark's
generated bundles with the line readers disabled, so a change that makes
the byte reader decline them fails here rather than as a slower set-up,
and loads the Cora-shaped one under tracemalloc, so a change that builds
its dense feature table again fails here rather than as a larger peak.
This module reads perfbench/graphgen.py and never edits it.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from oodgat import graphs
from oodgat.errors import GraphDataError

GRAPHGEN = Path(__file__).resolve().parents[1] / "perfbench" / "graphgen.py"


def load_graphgen():
    spec = importlib.util.spec_from_file_location("perfbench_graphgen", GRAPHGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_table(rng, rows, width, max_digits):
    """Token strings of 1..max_digits digits, some with leading zeros."""
    lengths = rng.integers(1, max_digits + 1, size=(rows, width))
    return [["".join(map(str, rng.integers(0, 10, size=n))) for n in row]
            for row in lengths.tolist()]


def render(table, sep, final_newline=True):
    text = "\n".join(sep.join(row) for row in table)
    return text + "\n" if final_newline else text


def line_readers(monkeypatch):
    """Decline every file in the byte reader, as if it did not exist."""
    monkeypatch.setattr(graphs, "_token_table", lambda path, sep: None)


def load_outcome(root, ood_classes=(1,)):
    """Everything a load gives back: the Graph arrays or the error."""
    try:
        g = graphs.load_graph_bundle(root, ood_classes)
    except (GraphDataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (g.edges, g.features, g.labels, g.identity)]


def write_files(root, labels="0\n1\n1\n", features="0,1\n1,0\n1,1\n",
                edges="0\t1\n1\t2\n"):
    root.mkdir(parents=True, exist_ok=True)
    (root / "labels.tsv").write_bytes(labels.encode())
    (root / "features.csv").write_bytes(features.encode())
    (root / "edges.tsv").write_bytes(edges.encode())
    return root


# ---------------------------------------------------------------------------
# canonical tables read as the line readers read them


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("max_digits", [1, 4, 15])
def test_feature_tables_match_the_line_reader(tmp_path, monkeypatch, width, max_digits,
                                              final_newline):
    rng = np.random.default_rng(100 * width + max_digits)
    rows = int(rng.integers(1, 40))
    path = tmp_path / "features.csv"
    path.write_bytes(render(random_table(rng, rows, width, max_digits), ",",
                            final_newline).encode())
    fast = graphs._int_table(path, ",")
    assert fast is not None and fast.dtype == np.float64
    expected = graphs._read_features(path, rows)
    line_readers(monkeypatch)
    slow = graphs._read_features(path, rows)
    assert slow.tobytes() == fast.tobytes() == expected.tobytes()
    assert slow.shape == fast.shape == (rows, width)


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("max_digits", [1, 3, 15])
def test_label_and_edge_tables_match_the_line_readers(tmp_path, monkeypatch, max_digits,
                                                      final_newline):
    rng = np.random.default_rng(max_digits)
    rows = int(rng.integers(1, 60))
    labels, edges = tmp_path / "labels.tsv", tmp_path / "edges.tsv"
    labels.write_bytes(render(random_table(rng, rows, 1, max_digits), "\t",
                              final_newline).encode())
    edges.write_bytes(render(random_table(rng, rows, 2, max_digits), "\t",
                             final_newline).encode())
    assert graphs._int_table(labels, "\t").shape == (rows, 1)
    assert graphs._int_table(edges, "\t").shape == (rows, 2)
    fast = graphs._read_labels(labels), graphs._read_edges(edges)
    line_readers(monkeypatch)
    slow = graphs._read_labels(labels), graphs._read_edges(edges)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_whole_bundle_matches_the_line_readers(tmp_path, monkeypatch):
    root = write_files(tmp_path / "b", labels="0\n2\n1\n2\n",
                       features="0,1,0\n1,0,0\n1,1,1\n0,0,7\n",
                       edges="3\t0\n1\t2\n2\t1\n2\t2\n0\t1\n")
    fast = load_outcome(root, (2,))
    line_readers(monkeypatch)
    assert load_outcome(root, (2,)) == fast


# ---------------------------------------------------------------------------
# anything else goes to the line readers


DECLINED = {
    "crlf": dict(labels="0\r\n1\r\n1\r\n", features="0,1\r\n1,0\r\n1,1\r\n",
                 edges="0\t1\r\n1\t2\r\n"),
    "blank lines": dict(labels="0\n\n1\n1\n\n", features="\n0,1\n1,0\n\n1,1\n",
                        edges="0\t1\n\n1\t2\n"),
    "spaces": dict(labels=" 0\n1 \n1\n", features="0, 1\n1,0\n1,1\n",
                   edges="0\t 1\n1\t2\n"),
    "signs": dict(labels="+0\n1\n1\n", features="-1,1\n1,0\n1,+1\n", edges="-0\t1\n"),
    "decimals": dict(labels="0\n1.0\n1\n", features="0,1.0\n1,0\n1,1\n", edges="0\t1.0\n"),
    "16 digits": dict(labels="0\n1\n0000000000000001\n",
                      features="1234567890123456,1\n1,0\n1,1\n",
                      edges="0000000000000000\t0000000000000001\n"),
    "16-digit features": dict(features="9007199254740993,1\n1,0\n1,1\n"),
    "ragged rows": dict(features="0,1\n1\n1,1\n"),
    "ragged edges": dict(edges="0\t1\n1\t2\t0\n"),
    "wide labels": dict(labels="0\t0\n1\t1\n1\t1\n"),
    "empty labels": dict(labels=""),
    "empty features": dict(features=""),
    "empty edges": dict(edges=""),
    "blank edges": dict(edges="\n"),
    "row count": dict(features="0,1\n1,0\n"),
    "row count, one digit": dict(features="0,1\n1,0\n1,1\n0,0\n"),
    "row count, many digits": dict(features="0,10\n1,0\n1,1\n0,0\n"),
    "letters": dict(labels="0\n1\nx\n", features="0,1\n1,a\n1,1\n", edges="0\tb\n"),
    "separator": dict(features="0;1\n1;0\n1;1\n", edges="0,1\n1,2\n"),
    "nan": dict(features="0,nan\n1,0\n1,1\n"),
    "trailing separator": dict(features="0,1,\n1,0,\n1,1,\n"),
    "utf-8 digits": dict(labels="0\n1\n١\n"),
}


# one file at a time, so an error in labels.tsv cannot hide the other two
ONE_FILE = {f"{name}-{file}": {file: text}
            for name, files in DECLINED.items() for file, text in files.items()}


@pytest.mark.parametrize("files", ONE_FILE.values(), ids=list(ONE_FILE))
def test_other_inputs_give_the_line_readers_result(tmp_path, monkeypatch, files):
    root = write_files(tmp_path / "b", **files)
    fast = load_outcome(root)
    line_readers(monkeypatch)
    assert load_outcome(root) == fast


@pytest.mark.parametrize("text, sep", [
    ("0\r\n1\r\n", "\t"), ("0\n\n1\n", "\t"), ("0 \n", "\t"), ("+1\n", "\t"),
    ("1.0\n", "\t"), ("1234567890123456\n", "\t"), ("0,1\n1\n", ","), ("", ","),
    ("\n", ","), ("0,1,\n", ","), ("0\t1\n", ","), ("\n0\n", "\t"), ("0\n\n", "\t"),
])
def test_reader_declines_non_canonical_files(tmp_path, text, sep):
    path = tmp_path / "table"
    path.write_bytes(text.encode())
    assert graphs._int_table(path, sep) is None


def test_reader_declines_a_missing_file(tmp_path):
    assert graphs._int_table(tmp_path / "absent.tsv", "\t") is None
    with pytest.raises(GraphDataError, match="missing bundle file"):
        graphs.load_graph_bundle(tmp_path, {1})


@pytest.mark.parametrize("first_row", ["0.5,1\n", "-1,0\n", "1,0\r\n", "1, 0\n"])
def test_a_non_canonical_first_row_declines_before_the_rest_is_read(tmp_path, monkeypatch,
                                                                    first_row):
    path = tmp_path / "features.csv"
    path.write_bytes((first_row + "0,1\n" * 100).encode())
    monkeypatch.setattr(graphs.np, "fromfile", _refuse("np.fromfile"))
    assert graphs._int_table(path, ",") is None


def csr_parts(m):
    return [(a.dtype.str, a.tobytes()) for a in (m.data, m.indices, m.indptr)] + [m.shape]


@pytest.mark.parametrize("final_newline", [True, False])
def test_sparse_digit_features_match_the_line_readers(tmp_path, monkeypatch, final_newline):
    rng = np.random.default_rng(11)
    rows, width = 37, 23
    table = np.where(rng.random((rows, width)) < 0.08, rng.integers(1, 10, (rows, width)), 0)
    table[[0, 5, -1]] = 0  # empty rows at both ends and inside
    root = write_files(tmp_path / "b", labels="".join(f"{i % 3}\n" for i in range(rows)),
                       features=render(table.astype(str).tolist(), ",", final_newline))
    fast = graphs.load_graph_bundle(root, (2,)).features
    line_readers(monkeypatch)
    slow = graphs.load_graph_bundle(root, (2,)).features
    assert sp.isspmatrix_csr(fast) and sp.isspmatrix_csr(slow)
    assert csr_parts(fast) == csr_parts(slow) == csr_parts(sp.csr_matrix(table.astype(float)))


def test_fifteen_digit_tokens_are_exact(tmp_path):
    path = tmp_path / "table"
    path.write_bytes(b"999999999999999,000000000000001\n123456789012345,7\n")
    np.testing.assert_array_equal(graphs._int_table(path, ","),
                                  [[999999999999999.0, 1.0], [123456789012345.0, 7.0]])


# ---------------------------------------------------------------------------
# the benchmark bundles take the byte reader


def _refuse(name, original=None):
    def reader(path, *args, **kwargs):
        if original is None or Path(path).name != "features.csv":
            raise AssertionError(f"{name} called for {path}")
        return original(path, *args, **kwargs)
    return reader


@pytest.mark.parametrize("generator, ood_classes, binary", [
    ("cora_shaped", (0, 1, 3), True),
    ("sparse_sbm", (6, 7), False),
])
def test_benchmark_bundles_skip_the_line_readers(tmp_path, monkeypatch, generator,
                                                 ood_classes, binary):
    graphgen = load_graphgen()
    data = getattr(graphgen, generator)(0)
    graphgen.write_bundle(data, tmp_path)
    if binary:
        monkeypatch.setattr(graphs, "_read_lines", _refuse("_read_lines"))
        monkeypatch.setattr(graphs.np, "loadtxt", _refuse("np.loadtxt"))
    else:  # real-valued features still go through the line reader
        monkeypatch.setattr(graphs, "_read_lines", _refuse("_read_lines", graphs._read_lines))
    g = graphs.load_graph_bundle(tmp_path, ood_classes)
    np.testing.assert_array_equal(g.edges, data.edges)
    np.testing.assert_array_equal(g.labels, data.labels)
    if binary:
        assert g.features.toarray().tobytes() == data.features.astype(np.float64).tobytes()


def test_sparse_features_load_without_the_dense_table(tmp_path, monkeypatch):
    graphgen = load_graphgen()
    data = graphgen.cora_shaped(0)
    graphgen.write_bundle(data, tmp_path)
    rows, cols = data.features.shape
    tracemalloc.start()
    try:
        g = graphs.load_graph_bundle(tmp_path, (0, 1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * cols * 8 / 2  # the dense float64 table alone is twice this
    features = g.features
    assert sp.isspmatrix_csr(features) and features.indices.dtype == np.int32
    assert features.has_sorted_indices and np.all(features.data != 0)
    line_readers(monkeypatch)
    dense = graphs._read_features(tmp_path / "features.csv", rows)
    assert features.toarray().tobytes() == dense.tobytes()
    assert csr_parts(features) == csr_parts(sp.csr_matrix(dense))
