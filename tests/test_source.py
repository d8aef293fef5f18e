"""Guards on the package source itself."""

import ast
from pathlib import Path

import conhoch

PACKAGE = Path(conhoch.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every invariant of the
    # library must raise a typed ConhochError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
