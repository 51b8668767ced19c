import ast
from pathlib import Path

import dspkit


def _library_trees():
    for path in sorted(Path(dspkit.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so no invariant may rest on one
    for path, tree in _library_trees():
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"


def test_library_has_no_float():
    # arithmetic stays exact: no float literal and no call to float()
    for path, tree in _library_trees():
        floats = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"]
        assert floats == [], f"{path.name}: float at lines {floats}"


def test_library_has_no_dataclasses():
    # importing dataclasses (with inspect) would cost every CLI process about 10 ms
    for path, tree in _library_trees():
        imports = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   and any(alias.name == "dataclasses" for alias in node.names)
                   or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
        assert imports == [], f"{path.name}: dataclasses imported at lines {imports}"


def test_library_has_no_cached_property():
    # its __get__ runs in Python, under a lock, on every read; shapes fill slots instead
    for path, tree in _library_trees():
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "cached_property"
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                or isinstance(node, ast.alias) and node.name == "cached_property"]
        assert uses == [], f"{path.name}: cached_property at lines {uses}"


def test_library_reads_no_environment_variable():
    # the library's limits are constants, not knobs set from the environment
    for path, tree in _library_trees():
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                 or isinstance(node, ast.alias) and node.name in ("environ", "getenv")]
        assert reads == [], f"{path.name}: environment read at lines {reads}"
