"""The README's claims table holds the package's public surface to it.

Every Section 3 tag that ``props.py`` can emit, every rule of the
calculus and every exported ``check_*`` function has a row.  Every other
name of a package's ``__all__`` is in a row, imported by ``cli.py`` or
used in the README's Python blocks, which run here too.  Every test and
golden that a row names exists.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from lamdist.eqtheory.judgments import RULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lamdist"
TESTS = ROOT / "tests"
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGES = ("quantale", "syntax", "semantics", "relations", "eqtheory")
COLUMNS = ["Claim", "Checked by", "CLI", "Pinned by", "Strength"]
STRENGTHS = ("exhaustive to n", "exact", "probe-relative")


def _table() -> list[dict]:
    """The rows of the table under "## Claims and their checks", each a
    dict from column to cell."""
    lines = README.split("## Claims and their checks\n", 1)[1].splitlines()
    rows = []
    for line in lines:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    header, _, *body = rows
    assert header == COLUMNS
    assert all(len(row) == len(COLUMNS) for row in body)
    return [dict(zip(COLUMNS, row)) for row in body]


ROWS = _table()


def _code(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def _names(spans) -> set[str]:
    return {name for span in spans
            for name in re.findall(r"[A-Za-z_]\w*", span)}


TABLE_CODE = {span for row in ROWS for cell in row.values()
              for span in _code(cell)}


def _emitted_tags() -> set[str]:
    """The first argument of every ``fail(...)`` call in ``props.py``, an
    f-string's ``{tag}`` read as each of ``l`` and ``r``."""
    tree = ast.parse((SRC / "quantale" / "props.py").read_text("utf-8"))
    tags = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "fail"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant):
            tags.add(arg.value)
            continue
        for side in ("l", "r"):
            tags.add("".join(part.value if isinstance(part, ast.Constant)
                             else side for part in arg.values))
    return tags


def _exports() -> dict[str, list[str]]:
    return {pkg: importlib.import_module(f"lamdist.{pkg}").__all__
            for pkg in PACKAGES}


def _cli_imports() -> set[str]:
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _cli_commands() -> set[str]:
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"}


TOUR = re.findall(r"```python\n(.*?)```", README, re.S)


def _tour_names() -> set[str]:
    names = set()
    for block in TOUR:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def test_every_section3_tag_has_a_row():
    tags = _emitted_tags()
    assert {"prop2.i.l", "prop2.i.r", "prop3.forward"} <= tags
    assert tags - TABLE_CODE == set()


def test_every_rule_has_a_row():
    assert set(RULES) - TABLE_CODE == set()


def test_every_exported_check_function_has_a_row():
    checked_by = _names(span for row in ROWS
                        for span in _code(row["Checked by"]))
    exported = {name for names in _exports().values() for name in names
                if name.startswith("check_")}
    assert exported - checked_by == set()


def test_every_export_is_in_the_table_the_cli_or_the_tour():
    known = _names(TABLE_CODE) | _cli_imports() | _tour_names()
    unmapped = {f"{pkg}.{name}" for pkg, names in _exports().items()
                for name in names if name not in known}
    assert unmapped == set()


def _pin_exists(pin: str) -> bool:
    if re.fullmatch(r"golden/[\w.-]+\.json", pin):
        return (TESTS / pin).is_file()
    match = re.fullmatch(r"(test_\w+\.py)::(test_\w+)", pin)
    if match is None or not (TESTS / match[1]).is_file():
        return False
    tree = ast.parse((TESTS / match[1]).read_text("utf-8"))
    return any(isinstance(node, ast.FunctionDef) and node.name == match[2]
               for node in tree.body)


def test_every_pinned_test_and_golden_exists():
    pins = [pin for row in ROWS for pin in _code(row["Pinned by"])]
    assert all(_code(row["Pinned by"]) for row in ROWS)
    assert [pin for pin in pins if not _pin_exists(pin)] == []


def test_each_row_names_a_subcommand_or_none_and_a_strength():
    commands = _cli_commands()
    for row in ROWS:
        assert row["CLI"] == "—" or set(_code(row["CLI"])) <= commands, row
        assert row["Strength"].startswith(STRENGTHS), row


@pytest.mark.parametrize("block", TOUR, ids=range(len(TOUR)))
def test_the_readme_python_blocks_run(block):
    exec(compile(block, "README.md", "exec"), {})
