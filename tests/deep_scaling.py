"""The deep-input scaling gate: checking a derivation is linear in binder
depth, and parsing in nesting depth.

Run it from the repository root::

    python tests/deep_scaling.py

For closed binder chains ``\\x0:Real. ... \\x{n-1}:Real. x0`` of 1,000,
3,000 and 10,000 binders it builds the self-distance derivation and
times ``check_derivation`` on it.  For 1,000, 3,000 and 10,000 nested
``sin(`` calls it times ``parse_term`` and ``parse_shared`` (with an
empty span table).  Each measurement runs in a fresh interpreter, and
the script prints its wall time and the interpreter's peak RSS.  It
exits 1 if a derivation is not judged valid, if 10,000 binders take
more than ``LIMIT_S`` seconds to check, or if parsing 10,000 nested
calls peaks above ``PARSE_RSS_MB``: a span table that stored every
nested span would hold tokens quadratic in the depth.  Standard library
only.
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
PARSERS = ("parse_term", "parse_shared")
PARSE_RSS_MB = 400.0  # for the largest size: about 85 bounded, 2,000 without


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


def measure_parse(parser: str, n: int) -> dict:
    """Parse ``n`` nested ``sin(`` calls with ``parser`` in this
    interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.syntax import parse_term, render_term
    from lamdist.syntax.parser import parse_shared

    text = "sin(" * n + "x" + ")" * n
    start = perf_counter()
    t = parse_term(text) if parser == "parse_term" else parse_shared(text, {})
    parsed = perf_counter() - start
    return {"parser": parser, "calls": n, "same": render_term(t) == text,
            "parse_s": parsed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def run(*args: str) -> dict | None:
    """The row that this script prints for ``args`` in a fresh
    interpreter, or ``None`` if it failed."""
    proc = subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(f"{' '.join(args)} failed:\n{proc.stderr}")
        return None
    return json.loads(proc.stdout)


def main() -> int:
    failed = False
    print(f"{'binders':>8} {'build s':>8} {'check s':>8} {'peak RSS MB':>12}")
    for n in SIZES:
        if (row := run(str(n))) is None:
            return 1
        print(f"{n:>8} {row['build_s']:>8.2f} {row['check_s']:>8.2f} "
              f"{row['peak_rss_mb']:>12.1f}")
        if not row["valid"]:
            print(f"  the derivation over {n} binders is not judged valid")
            failed = True
    if row["check_s"] > LIMIT_S:
        print(f"  checking {n} binders took over {LIMIT_S:g} s")
        failed = True
    print(f"\n{'parser':>12} {'calls':>8} {'parse s':>8} {'peak RSS MB':>12}")
    for parser in PARSERS:
        for n in SIZES:
            if (row := run(parser, str(n))) is None:
                return 1
            print(f"{parser:>12} {n:>8} {row['parse_s']:>8.3f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {parser} misreads {n} nested calls")
                failed = True
        if row["peak_rss_mb"] > PARSE_RSS_MB:
            print(f"  {parser} on {n} nested calls peaked above "
                  f"{PARSE_RSS_MB:g} MB")
            failed = True
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print(json.dumps(measure_parse(sys.argv[1], int(sys.argv[2]))))
        sys.exit(0)
    if len(sys.argv) > 1:
        print(json.dumps(measure(int(sys.argv[1]))))
        sys.exit(0)
    sys.exit(main())
