"""Bundle files in, `Graph` arrays or one `GraphDataError` out.

`OUTCOMES` is the reader's outcome table. Each input changes one file (or
the same kind of line in all three) of a small valid bundle, and its row
gives the arrays the bundle loads to or the exact error, which names the
file at fault. numpy parses every table (`graphs._table`). Only a
`features.csv` whose values are all one ASCII digit is read as bytes
(`graphs._digit_table`); the tests after the table hold that path to the
CSR of the numpy-parsed table, to its first-row decline, and to its memory
bound on the benchmark's Cora-shaped bundle. This module reads
perfbench/graphgen.py and never edits it.
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
FILES = {"labels": "labels.tsv", "features": "features.csv", "edges": "edges.tsv"}


def load_graphgen():
    spec = importlib.util.spec_from_file_location("perfbench_graphgen", GRAPHGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_files(root, labels="0\n1\n1\n", features="0,1\n1,0\n1,1\n", edges="0\t1\n1\t2\n"):
    root.mkdir(parents=True, exist_ok=True)
    for key, text in (("labels", labels), ("features", features), ("edges", edges)):
        (root / FILES[key]).write_bytes(text if isinstance(text, bytes) else text.encode())
    return root


# ---------------------------------------------------------------------------
# the outcome table


EDGES, FEATURES, LABELS = [[0, 1], [1, 2]], [[0, 1], [1, 0], [1, 1]], [0, 1, 1]


def loads(edges=EDGES, features=FEATURES, labels=LABELS):
    return "loads", edges, features, labels


def fails(message):
    return "fails", message


def columns_changed(name, before, after, row):
    return fails(f"{name}: the number of columns changed from {before} to {after} at row "
                 f"{row}; use `usecols` to select a subset and avoid this error")


def not_converted(name, text, dtype, row, column):
    return fails(f"{name}: could not convert string {text!r} to {dtype} at row {row}, "
                 f"column {column}.")


EVERY_FILE = {
    "crlf": (dict(labels="0\r\n1\r\n1\r\n", features="0,1\r\n1,0\r\n1,1\r\n",
                  edges="0\t1\r\n1\t2\r\n"), loads()),
    "blank lines": (dict(labels="0\n\n1\n1\n\n", features="\n0,1\n1,0\n\n1,1\n",
                         edges="0\t1\n\n1\t2\n"), loads()),
    "whitespace-only lines": (dict(labels="0\n \n1\n1\n", features="0,1\n \t \n1,0\n1,1\n",
                                   edges="  \n0\t1\n1\t2\n"), loads()),
    "tab-only lines": (dict(labels="\t\n0\n1\n1\n", features="0,1\n1,0\n\t\n1,1\n",
                            edges="0\t1\n\t\t\n1\t2\n"), loads()),
}

# one changed file per row, so an error in labels.tsv cannot hide the other two
ONE_FILE = {
    "spaces": {
        "labels": (" 0\n1 \n1\n", loads()),
        "features": ("0, 1\n1,0\n1,1\n", loads()),
        "edges": ("0\t 1\n1\t2\n", loads()),
    },
    "tabs around a label": {"labels": ("0\t\n\t1\n 1 \t\n", loads())},
    "signs": {
        "labels": ("+0\n1\n1\n", loads()),
        "features": ("-1,1\n1,0\n1,+1\n", loads(features=[[-1, 1], [1, 0], [1, 1]])),
        "edges": ("-0\t1\n", loads(edges=[[0, 1]])),
    },
    "decimals": {
        "labels": ("0\n1.0\n1\n", not_converted("labels.tsv", "1.0", "int64", 1, 1)),
        "features": ("0,1.0\n1,0\n1,1\n", loads()),
        "edges": ("0\t1.0\n", not_converted("edges.tsv", "1.0", "int64", 0, 2)),
    },
    "exponents": {"features": ("1e3,2E-2\n1,0\n1.5e+1,1\n",
                               loads(features=[[1000, 0.02], [1, 0], [15, 1]]))},
    "16 digits": {
        "labels": ("0\n1\n0000000000000001\n", loads()),
        "features": ("1234567890123456,1\n1,0\n1,1\n",
                     loads(features=[[1234567890123456, 1], [1, 0], [1, 1]])),
        "edges": ("0000000000000000\t0000000000000001\n", loads(edges=[[0, 1]])),
    },
    # 2**53 + 1 rounds to the nearest double, as float() rounds it
    "16-digit features": {"features": ("9007199254740993,1\n1,0\n1,1\n",
                                       loads(features=[[2.0 ** 53, 1], [1, 0], [1, 1]]))},
    "19 digits": {"labels": ("0\n1\n0000000000000000001\n", loads())},
    "20 digits": {
        "labels": ("0\n1\n99999999999999999999\n",
                   not_converted("labels.tsv", "99999999999999999999", "int64", 2, 1)),
        "edges": ("0\t99999999999999999999\n",
                  not_converted("edges.tsv", "99999999999999999999", "int64", 0, 2)),
    },
    "ragged rows": {"features": ("0,1\n1\n1,1\n", columns_changed("features.csv", 2, 1, 2))},
    "ragged edges": {"edges": ("0\t1\n1\t2\t0\n", columns_changed("edges.tsv", 2, 3, 2))},
    "wide labels": {"labels": ("0\t0\n1\t1\n1\t1\n",
                               fails("labels.tsv: expected 1 id(s) per line, got 2"))},
    "narrow edges": {"edges": ("0\n1\n", fails("edges.tsv: expected 2 id(s) per line, got 1"))},
    "empty labels": {"labels": ("", fails("labels.tsv lists no nodes"))},
    "empty features": {"features": ("", fails("features.csv has 0 rows, labels.tsv has 3"))},
    "empty edges": {"edges": ("", loads(edges=[]))},
    "blank edges": {"edges": ("\n", loads(edges=[]))},
    "row count": {"features": ("0,1\n1,0\n", fails("features.csv has 2 rows, labels.tsv has 3"))},
    "row count, one digit": {"features": ("0,1\n1,0\n1,1\n0,0\n",
                                          fails("features.csv has 4 rows, labels.tsv has 3"))},
    "row count, many digits": {"features": ("0,10\n1,0\n1,1\n0,0\n",
                                            fails("features.csv has 4 rows, labels.tsv has 3"))},
    "letters": {
        "labels": ("0\n1\nx\n", not_converted("labels.tsv", "x", "int64", 2, 1)),
        "features": ("0,1\n1,a\n1,1\n", not_converted("features.csv", "a", "float64", 1, 2)),
        "edges": ("0\tb\n", not_converted("edges.tsv", "b", "int64", 0, 2)),
    },
    "comment sign": {
        "labels": ("#\n0\n1\n1\n", not_converted("labels.tsv", "#", "int64", 0, 1)),
        "edges": ("0\t1\n#1\t2\n", not_converted("edges.tsv", "#1", "int64", 1, 1)),
    },
    "separator": {
        "features": ("0;1\n1;0\n1;1\n", not_converted("features.csv", "0;1", "float64", 0, 1)),
        "edges": ("0,1\n1,2\n", not_converted("edges.tsv", "0,1", "int64", 0, 1)),
    },
    "nan": {"features": ("0,nan\n1,0\n1,1\n",
                         fails("features.csv: feature row 0 has a non-finite value"))},
    "trailing separator": {"features": ("0,1,\n1,0,\n1,1,\n",
                                        not_converted("features.csv", "", "float64", 0, 3))},
    "gap in labels": {"labels": ("0\n2\n2\n",
                                 fails("labels.tsv: labels must be contiguous from 0; missing [1]"))},
    "negative label": {"labels": ("0\n-1\n1\n", fails("labels.tsv: label -1 is below 0"))},
    "id out of range": {"edges": ("0\t3\n", fails("edges.tsv references a node id out of range"))},
    # Python's int() read these; numpy reads ASCII digits only
    "non-ASCII digits": {
        "labels": ("0\n1\n١\n", not_converted("labels.tsv", "١", "int64", 2, 1)),
        "edges": ("0\t１\n", not_converted("edges.tsv", "１", "int64", 0, 2)),
    },
    "underscore in an id": {"labels": ("0\n1\n0_1\n", not_converted("labels.tsv", "0_1", "int64",
                                                                     2, 1))},
    "invalid UTF-8": {
        "labels": (b"0\n1\n\xff\n", fails("labels.tsv: 'utf-8' codec can't decode byte 0xff "
                                          "in position 4: invalid start byte")),
        # the first row is a one-digit row, so the byte path declines only at the 0xff
        "features": (b"0,1\n1,0\n1,\xff\n", fails("features.csv: 'utf-8' codec can't decode "
                                                  "byte 0xff in position 10: invalid start byte")),
        "edges": (b"0\t1\n\xfe\t2\n", fails("edges.tsv: 'utf-8' codec can't decode byte 0xfe "
                                             "in position 4: invalid start byte")),
    },
}

OUTCOMES = dict(EVERY_FILE)
OUTCOMES.update({f"{name}-{key}": ({key: text}, outcome) for name, files in ONE_FILE.items()
                 for key, (text, outcome) in files.items()})


@pytest.mark.parametrize("files, outcome", OUTCOMES.values(), ids=list(OUTCOMES))
def test_outcome_table(tmp_path, files, outcome):
    root = write_files(tmp_path / "b", **files)
    if outcome[0] == "fails":
        with pytest.raises(GraphDataError) as info:
            graphs.load_graph_bundle(root, (1,))
        [key] = files
        assert str(info.value) == outcome[1]
        assert str(info.value).startswith(FILES[key])
        return
    _, edges, features, labels = outcome
    g = graphs.load_graph_bundle(root, (1,))
    for array, dtype, want in ((g.edges, np.int64, np.reshape(edges, (-1, 2))),
                               (g.labels, np.int64, labels),
                               (g.identity, np.int8, np.array(labels) == 1)):
        assert array.dtype == dtype and array.flags.c_contiguous
        np.testing.assert_array_equal(array, want)
    # three 0/1 rows hold at least a quarter of nonzeros, so the form is dense
    assert isinstance(g.features, np.ndarray) and g.features.dtype == np.float64
    assert g.features.tobytes() == np.array(features, dtype=np.float64).tobytes()


def test_a_missing_file_is_named(tmp_path):
    with pytest.raises(GraphDataError, match="missing bundle file: .*labels.tsv"):
        graphs.load_graph_bundle(tmp_path, {1})
    write_files(tmp_path)
    (tmp_path / "edges.tsv").unlink()
    with pytest.raises(GraphDataError, match="missing bundle file: .*edges.tsv"):
        graphs.load_graph_bundle(tmp_path, {1})


def random_table(rng, rows, width, max_digits):
    """Token strings of 1..max_digits digits, some with leading zeros."""
    lengths = rng.integers(1, max_digits + 1, size=(rows, width))
    return [["".join(map(str, rng.integers(0, 10, size=n))) for n in row]
            for row in lengths.tolist()]


def render(table, sep, final_newline=True):
    text = "\n".join(sep.join(row) for row in table)
    return text + "\n" if final_newline else text


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("max_digits", [1, 4, 15, 18])
def test_integer_tables_are_exact(tmp_path, max_digits, final_newline):
    # ids up to 18 digits are exact int64; integer features up to 15 digits
    # (below 2**53) are exact float64
    rng = np.random.default_rng(max_digits)
    rows = int(rng.integers(1, 60))
    for name, sep, width, dtype in (("labels.tsv", None, 1, np.int64),
                                    ("edges.tsv", "\t", 2, np.int64),
                                    ("features.csv", ",", 3, np.float64)):
        table = random_table(rng, rows, width, min(max_digits, 15 if dtype is np.float64 else 18))
        path = tmp_path / name
        path.write_bytes(render(table, "\t" if sep is None else sep, final_newline).encode())
        got = graphs._table(path, sep, dtype)
        want = np.array([[int(t) for t in row] for row in table], dtype=dtype)
        assert got.dtype == dtype and got.shape == (rows, width)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the one-digit byte path


def csr_parts(m):
    return [(a.dtype.str, a.tobytes()) for a in (m.data, m.indices, m.indptr)] + [m.shape]


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("density", [0.08, 0.6])
def test_digit_features_equal_the_numpy_table(tmp_path, final_newline, density):
    rng = np.random.default_rng(11)
    rows, width = 37, 23
    table = np.where(rng.random((rows, width)) < density, rng.integers(1, 10, (rows, width)), 0)
    table[[0, 5, -1]] = 0  # empty rows at both ends and inside
    path = tmp_path / "features.csv"
    path.write_bytes(render(table.astype(str).tolist(), ",", final_newline).encode())
    digits = graphs._digit_table(path)
    assert digits.dtype == np.uint8 and digits.shape == (rows, width)
    fast = graphs._read_features(path, rows)
    numpy_table = graphs._table(path, ",", np.float64)
    if density < 0.25:
        assert sp.isspmatrix_csr(fast)
        assert csr_parts(fast) == csr_parts(sp.csr_matrix(numpy_table))
    else:
        assert fast.dtype == np.float64 and fast.tobytes() == numpy_table.tobytes()


@pytest.mark.parametrize("text", [
    "0,1\r\n1,0\r\n", "0,1\n\n1,0\n", "0,1\n10,0\n", "0,1\n0.5,0\n", "0,1\n1\n", "0,1\n1,0,1\n",
    "0,1\n1,a\n", "0,1,\n1,0,\n", "0\t1\n1\t0\n", "0,1\n1, 0\n", "0,1\n\n",
])
def test_digit_table_declines_other_files(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode())
    assert graphs._digit_table(path) is None


def _refuse(name):
    def reader(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return reader


@pytest.mark.parametrize("first_row", ["0.5,1\n", "-1,0\n", "1,0\r\n", "1, 0\n", "10,0\n", "\n"])
def test_a_first_row_that_is_not_one_digit_declines_before_the_rest_is_read(
        tmp_path, monkeypatch, first_row):
    path = tmp_path / "features.csv"
    path.write_bytes((first_row + "0,1\n" * 100).encode())
    monkeypatch.setattr(graphs.np, "fromfile", _refuse("np.fromfile"))
    assert graphs._digit_table(path) is None
    assert graphs._digit_table(tmp_path / "absent.csv") is None


# ---------------------------------------------------------------------------
# each side of the choice on the benchmark bundles


def _recording_tables(monkeypatch):
    read = []
    table = graphs._table

    def recorded(path, *args):
        read.append(path.name)
        return table(path, *args)
    monkeypatch.setattr(graphs, "_table", recorded)
    return read


@pytest.mark.parametrize("generator, ood_classes, numpy_files", [
    ("cora_shaped", (0, 1, 3), ["labels.tsv", "edges.tsv"]),
    ("sparse_sbm", (6, 7), ["labels.tsv", "features.csv", "edges.tsv"]),
])
def test_benchmark_bundles_take_their_side(tmp_path, monkeypatch, generator, ood_classes,
                                           numpy_files):
    graphgen = load_graphgen()
    data = getattr(graphgen, generator)(0)
    graphgen.write_bundle(data, tmp_path)
    read = _recording_tables(monkeypatch)
    g = graphs.load_graph_bundle(tmp_path, ood_classes)
    assert read == numpy_files  # the Cora-shaped features never reach np.loadtxt
    np.testing.assert_array_equal(g.edges, data.edges)
    np.testing.assert_array_equal(g.labels, data.labels)
    features = g.features.toarray() if sp.issparse(g.features) else g.features
    assert features.tobytes() == np.asarray(data.features, dtype=np.float64).tobytes()


def test_sparse_features_load_without_the_dense_table(tmp_path):
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
    dense = graphs._table(tmp_path / "features.csv", ",", np.float64)
    assert csr_parts(features) == csr_parts(sp.csr_matrix(dense))
