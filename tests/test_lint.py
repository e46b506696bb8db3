"""Unused-import lint over src/, tests/ and perfbench/, and ten guards
on src/: every public engine function is used, no sparse matrix is made
dense outside the places that must, only the engine builds a
message-passing index, only `engine.attention` writes the index's
per-head block patterns, only `_record` and `backward` touch the tape's
node list, bundle text has one parser, detection scores
are sorted in one place, the prediction softmax is applied only by
`model_forward` (`test_prediction_softmax_is_applied_once`), output files
have one writer each, and one function starts the process pool.

Standard library only: every name an import statement binds must be read
somewhere in the same module, or listed in its `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_detects_and_accepts():
    source = ("import os\nimport numpy.linalg\nfrom json import dumps as d, loads\n"
              "__all__ = ['loads']\nprint(numpy.linalg, d)\n")
    assert unused_imports(source) == [(1, "os")]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def engine_references(source: str, names: set[str]) -> set[str]:
    """Names from `names` that a module reads as `engine.<name>` or as a
    name imported from the engine, outside a gradcheck battery line
    `check("<name>", ...)` or `check("<name>_<form>", ...)` of that name."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("engine")
                for alias in node.names if alias.name in names}
    own_check: dict[int, str] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "check" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            for inner in ast.walk(node):
                own_check[id(inner)] = node.args[0].value
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "engine"):
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in imported:
            name = node.id
        else:
            continue
        check_name = own_check.get(id(node), "")
        if check_name != name and not check_name.startswith(name + "_"):
            found.add(name)
    return found


def public_engine_functions() -> set[str]:
    tree = ast.parse((ROOT / "src" / "oodgat" / "engine.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_engine_references_skip_the_own_check_line():
    source = ("from .engine import attention\n"
              "check('add', lambda: engine.add(a, engine.mul(a, b)))\n"
              "check('sub_heads', lambda: engine.sub(a, b))\n"
              "check('attention', lambda: attention(hw, a, index, 'agree'))\n")
    assert engine_references(source, {"add", "mul", "sub", "attention"}) == {"mul"}


def test_every_engine_function_is_used_by_the_program():
    names = public_engine_functions()
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "engine.py":
            used |= engine_references(path.read_text(), names)
    assert sorted(names - used) == []


def _owned(source: str, matches) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "") of every node for which
    `matches(node)` holds."""
    tree = ast.parse(source)
    owner: dict[int, str] = {}
    for fn in ast.walk(tree):  # breadth first, so inner functions overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(fn):
                owner[id(inner)] = fn.name
    return sorted((node.lineno, owner.get(id(node), "")) for node in ast.walk(tree)
                  if matches(node))


def calls_of(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "") of every call of a name
    in `names`, bare (`f(...)`) or as an attribute (`x.f(...)`)."""
    return _owned(source, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) in names)


def attributes_of(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "") of every read or write
    of an attribute named in `names` (`x.attr`)."""
    return _owned(source, lambda node: isinstance(node, ast.Attribute) and node.attr in names)


def calls_outside(allowed: dict[str, set[str]], names: set[str], found_by=calls_of) -> list[str]:
    """Calls in src/ of a name in `names` outside the functions `allowed`
    lists for their module; with `found_by=attributes_of`, attribute uses."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        name = path.relative_to(ROOT / "src").as_posix()
        for line, fn in found_by(path.read_text(), names):
            if fn not in allowed.get(name, set()):
                found.append(f"src/{name}:{line}: in {fn or '<module>'}")
    return found


def test_densify_calls_name_their_function():
    source = ("x = m.todense()\n"
              "def outer(m):\n"
              "    def inner():\n"
              "        return m.toarray()\n"
              "    return [r.toarray() for r in m], m.tocsr(), toarray(m)\n")
    assert calls_of(source, {"toarray", "todense"}) == [(1, ""), (4, "inner"), (5, "outer"),
                                                        (5, "outer")]


# Graph features stay CSR from load onward when they are sparse. A CSR is
# made dense only row by row in the bundle writer, and whole only by the
# feature form rule when under a quarter of its entries are zero.
DENSIFY_ALLOWED = {"oodgat/graphs.py": {"_dense_rows", "_feature_form"}}


def test_no_sparse_matrix_is_made_dense_outside_its_places():
    assert calls_outside(DENSIFY_ALLOWED, {"toarray", "todense"}) == []


# The message-passing index is built in the engine only: the graph's index
# by `build_segment_index`, and every sub-index of it (drop-edge, the
# receptive field) as an entry selection.
INDEX_BUILDERS = {"oodgat/engine.py": {"build_segment_index", "select"}}


def test_segment_index_is_built_only_in_the_engine():
    assert calls_outside(INDEX_BUILDERS, {"SegmentIndex"}) == []


# The per-head block patterns of an index share one `data` buffer per head
# count, which a product fills with its weights right before it runs. One
# op reading them keeps that buffer's writers in one place.
BLOCK_READERS = {"oodgat/engine.py": {"attention"}}


def test_head_blocks_are_read_only_by_the_attention_op():
    assert calls_outside(BLOCK_READERS, {"head_blocks"}) == []


# The tape's node list is written by `_record` and swept by `backward`,
# which pops each node as it runs it; the tape's constructor makes it.
TAPE_NODE_USERS = {"oodgat/engine.py": {"__init__", "_record", "backward"}}


def test_attribute_uses_name_their_function():
    source = ("class T:\n"
              "    def __init__(self):\n"
              "        self._nodes = []\n"
              "def sweep(tape):\n"
              "    nodes, tape._nodes = tape._nodes, []\n"
              "    return nodes\n")
    assert attributes_of(source, {"_nodes"}) == [(3, "__init__"), (5, "sweep"), (5, "sweep")]


def test_tape_nodes_are_touched_only_by_record_and_backward():
    assert calls_outside(TAPE_NODE_USERS, {"_nodes"}, found_by=attributes_of) == []


# Bundle text has one parser: numpy reads every table in `_table`, and only
# a one-digit features.csv is read as bytes, in `_digit_table`.
TABLE_PARSERS = {"oodgat/graphs.py": {"_table", "_digit_table"}}


def test_bundle_text_has_one_parser():
    assert calls_outside(TABLE_PARSERS, {"loadtxt", "genfromtxt", "fromfile"}) == []


# Detection scores are sorted once, in the cached sweep of a `ScoredNodes`
# that every rank and threshold metric reads. The two other sorts order
# the index entries by target and the bundle's edges.
SORTS = {"oodgat/metrics.py": {"sweep"}, "oodgat/engine.py": {"build_segment_index"},
         "oodgat/graphs.py": {"_canonical_edges"}}


def test_scores_are_sorted_once():
    assert calls_outside(SORTS, {"argsort", "sort", "lexsort"}) == []


# Every architecture's prediction layer ends in one row softmax, applied
# by `model_forward`; the gradcheck battery checks the op itself.
SOFTMAX_CALLERS = {"oodgat/layers.py": {"model_forward"},
                   "oodgat/experiments.py": {"gradcheck_battery"}}


def test_prediction_softmax_is_applied_once():
    assert calls_outside(SOFTMAX_CALLERS, {"row_softmax"}) == []


# Each output file has one writer: a run's history and curve files are
# written by the process that trained it, the report files after the last
# run, and a generated bundle by its own command.
FILE_WRITERS = {"oodgat/experiments.py": {"_write_run_files", "export_report", "run_gen_sbm"},
                "oodgat/graphs.py": {"save_graph_bundle"}}


def test_output_files_have_one_writer_each():
    assert calls_outside(FILE_WRITERS, {"_write_atomic"}) == []


# The runs of an experiment stream from one pool, in task order.
POOL_BUILDERS = {"oodgat/experiments.py": {"execute_tasks"}}


def test_process_pool_is_built_only_in_execute_tasks():
    assert calls_outside(POOL_BUILDERS, {"ProcessPoolExecutor"}) == []
