"""Checks on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lamdist"


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``, so the package checks its
    invariants with typed errors instead."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/lamdist: {found}"
