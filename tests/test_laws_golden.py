"""The full ``lamdist --format json laws`` output, pinned byte for byte.

The golden was recorded while the relation kernel still stated each
operation twice, as loops and as a hand-written code generator.  Every
later kernel must reproduce each byte of it.  Each entry maps a command
line, with paths relative to the repository root, to the exit code and
standard output of ``cli.main``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lamdist.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "laws_cli.json"

COMMANDS = (
    "--format json laws --builtin bool --size 3",
    "--format json laws --builtin chain1 --size 3",
    "--format json laws --builtin chain2 --size 3",
    "--format json laws --file corpus/bool.qnt --size 2",
    "--format json laws --file perfbench/inputs/frame3.qnt --size 3",
)


def run(command: str) -> dict:
    argv = [str(ROOT / a) if a.endswith(".qnt") else a
            for a in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def laws_outputs() -> dict:
    """Regenerate the golden with ``python -c "import json, sys;
    sys.path[:0] = ['src', 'tests']; import test_laws_golden as t;
    print(json.dumps(t.laws_outputs(), indent=1))"`` run from the
    repository root."""
    return {command: run(command) for command in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS)
def test_laws_output_matches_golden(command):
    golden = json.loads(GOLDEN.read_text("utf-8"))
    assert list(golden) == list(COMMANDS)
    assert run(command) == golden[command]
