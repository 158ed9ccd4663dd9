"""The benchmark's output checks, run as part of the test suite.

``perfbench/controls.py`` feeds each output check a right and a wrong
answer; ``perfbench/run.py`` checks every verdict of each workload
against computations made apart from lamdist.  Both run as subprocesses,
as the benchmark does, so a wrong verdict of the quantale checker, the
relation checkers or the derivation checker fails the tests and not only
the benchmark.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_negative_controls_pass():
    proc = run(PERFBENCH / "controls.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 control(s) failed"


@pytest.mark.parametrize("workload", ["laws", "probes", "derivations"])
def test_workload_is_correct(workload):
    proc = run(PERFBENCH / "run.py", "--workload", workload, "--seconds", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_the_tracer_installs_and_uninstalls():
    """``perfbench/tracing.py`` patches library functions by name: each
    target must exist, be wrapped wherever a module binds it while the
    tracer is installed, and be the original function again after."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = [getattr(importlib.import_module(module), attr)
                 for _, module, attr in tracing.TARGETS]
    bindings = {(name, key): value
                for name, mod in list(sys.modules.items())
                if name == "lamdist" or name.startswith("lamdist.")
                for key, value in vars(mod).items()
                if any(value is fn for fn in originals)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (name, key), fn in bindings.items():
            assert getattr(sys.modules[name], key) is not fn, (name, key)
    finally:
        tracer.uninstall()
    for (name, key), fn in bindings.items():
        assert getattr(sys.modules[name], key) is fn, (name, key)
