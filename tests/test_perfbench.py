"""The benchmark's output checks, run as part of the test suite.

``perfbench/controls.py`` feeds each output check a right and a wrong
answer; ``perfbench/run.py`` checks every verdict of the ``probes``
workload against computations made apart from lamdist.  Both run as
subprocesses, as the benchmark does, so a wrong verdict of the relation
checkers fails the tests and not only the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_negative_controls_pass():
    proc = run(PERFBENCH / "controls.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 control(s) failed"


def test_probes_workload_is_correct():
    proc = run(PERFBENCH / "run.py", "--workload", "probes", "--seconds", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
