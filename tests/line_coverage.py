"""The line-coverage gate: every executable line of ``src/lamdist`` runs
in the tier-1 suite, or is allowlisted below with its reason.

Run it from the repository root::

    python tests/line_coverage.py

It runs the tier-1 suite in this process under ``sys.settrace``, prints
each executable line of ``src/lamdist`` that never ran, and exits 1 if
a test fails, if an unrun line is not on the allowlist, or if an
allowlist entry matches no unrun line.  Standard library, pytest and
Hypothesis only.

* A line is executable when the compiled module assigns an instruction
  to it (``co_lines`` of every code object), which is what the tracer's
  ``line`` events report.
* The tracer is installed again before each test phase: a tracer that
  raises, as any Python call can on a deep recursion, is removed by the
  interpreter, and so is one that a test replaces.
* Hypothesis runs derandomized, without its example database and
  without its explain phase, which installs a tracer of its own; the
  lines it reaches are then the same on every run.
* Lines that only a child process runs are never seen, since the tracer
  does not follow subprocesses.

The file is not named ``coverage.py``: pytest puts ``tests/`` on
``sys.path``, where that name would shadow the ``coverage`` package.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "lamdist"

# The unrun lines let stand: reason -> file under src/lamdist -> the
# stripped source texts of its lines
ALLOWLIST: dict[str, dict[str, tuple[str, ...]]] = {
    "run only as a script, which tests/test_cli.py starts as a subprocess": {
        "cli.py": ("sys.exit(main())",),
    },
    # q^c's fold of meets has Θ^c's cell among its terms, so only an order
    # that is not transitive could put q^c above Θ^c; none of the tables
    # in the tests does, nor any of 153,846 random three-element tables
    # with a broken order tried at n = 2.
    "Proposition 4's q^c ⊑ Θ^c, which no table tried falsifies": {
        "quantale/props.py": (
            'fail("prop4.q-below-theta.r", e, "q^r ⊑ Θ^r fails")',
            'fail("prop4.q-below-theta.l", e, "q^l ⊑ Θ^l fails")'),
    },
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers that carry an instruction in the compiled file."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run in
    each file of the package, keyed by absolute path."""
    import pytest

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    ran = {str(p): set() for p in PACKAGE.rglob("*.py")}
    local_tracers = {name: recorder(lines) for name, lines in ran.items()}

    def tracer(frame, event, arg):
        local = local_tracers.get(frame.f_code.co_filename)
        if local is not None:
            local(frame, event, arg)
        return local

    class Retrace:
        def pytest_configure(self, config):
            # after pytest has set up assertion rewriting for its plugins,
            # hypothesis among them, and before any test module is read
            import hypothesis
            hypothesis.settings.register_profile(
                "line-coverage", derandomize=True, database=None,
                deadline=None, phases=[p for p in hypothesis.Phase
                                       if p is not hypothesis.Phase.explain])
            hypothesis.settings.load_profile("line-coverage")

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(tracer)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            sys.settrace(tracer)

    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "tests"])
    import lamdist
    if Path(lamdist.__file__).resolve().parent != PACKAGE:
        print(f"lamdist was imported from {lamdist.__file__}, not {PACKAGE}")
        return 1

    allowed = {(path, text): reason
               for reason, files in ALLOWLIST.items()
               for path, texts in files.items() for text in texts}
    used: set[tuple[str, str]] = set()
    unrun, listed, total = [], [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[str(path)]):
            text = source[line - 1].strip()
            where = f"src/lamdist/{rel}:{line}: {text}"
            if (rel, text) in allowed:
                used.add((rel, text))
                listed.append(f"{where}  [{allowed[rel, text]}]")
            else:
                unrun.append(where)
    stale = sorted(set(allowed) - used)

    print(f"\n{total} executable lines in src/lamdist; "
          f"{len(unrun) + len(listed)} never ran, {len(listed)} of them "
          f"allowlisted")
    for where in listed:
        print(f"  allowed {where}")
    for where in unrun:
        print(f"  UNRUN   {where}")
    for rel, text in stale:
        print(f"  STALE   allowlist entry matches no unrun line: "
              f"src/lamdist/{rel}: {text}")
    if code:
        print(f"pytest exited with {code}: the counts are incomplete")
    return int(bool(code or unrun or stale))


if __name__ == "__main__":
    sys.exit(main())
