"""The deep-derivation scaling gate: checking is linear in binder depth.

Run it from the repository root::

    python tests/deep_scaling.py

For closed binder chains ``\\x0:Real. ... \\x{n-1}:Real. x0`` of 1,000,
3,000 and 10,000 binders it builds the self-distance derivation and
times ``check_derivation`` on it, each size in a fresh interpreter, and
prints the wall time and the interpreter's peak RSS.  It exits 1 if a
derivation is not judged valid, or if 10,000 binders take more than
``LIMIT_S`` seconds to check.  Standard library only.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1_000, 3_000, 10_000)
LIMIT_S = 20.0  # for the largest size


def measure(n: int) -> dict:
    """Build and check the self-distance derivation of an ``n``-binder
    chain in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.eqtheory import check_derivation, self_distance_derivation
    from lamdist.syntax import parse_term

    chain = parse_term("".join(f"\\x{i}:Real. " for i in range(n)) + "x0")
    start = perf_counter()
    d = self_distance_derivation(chain)
    built = perf_counter() - start
    start = perf_counter()
    result = check_derivation(d)
    checked = perf_counter() - start
    return {"binders": n, "valid": result.ok, "build_s": built,
            "check_s": checked,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    failed = False
    print(f"{'binders':>8} {'build s':>8} {'check s':>8} {'peak RSS MB':>12}")
    for n in SIZES:
        proc = subprocess.run([sys.executable, __file__, str(n)],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{n:>8} failed:\n{proc.stderr}")
            return 1
        row = json.loads(proc.stdout)
        print(f"{n:>8} {row['build_s']:>8.2f} {row['check_s']:>8.2f} "
              f"{row['peak_rss_mb']:>12.1f}")
        if not row["valid"]:
            print(f"  the derivation over {n} binders is not judged valid")
            failed = True
    if row["check_s"] > LIMIT_S:
        print(f"  checking {n} binders took over {LIMIT_S:g} s")
        failed = True
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(measure(int(sys.argv[1]))))
        sys.exit(0)
    sys.exit(main())
