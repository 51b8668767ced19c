import ast
from pathlib import Path

import dspkit


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so no invariant may rest on one
    for path in sorted(Path(dspkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"
