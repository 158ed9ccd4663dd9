"""Regenerate the fixed derivation inputs of the ``derivations`` workload.

    python3 perfbench/gen_derivations.py            # rewrite the files
    python3 perfbench/gen_derivations.py --check    # compare, write nothing

The inputs are committed files so that a change to the synthesizer cannot
change the workload; this script is how they were made.  From one seed it
draws, for each depth in ``DEPTHS``:

* ``s1-<depth>``: the self-distance derivation of a closed first-order
  tower ``\\x:Real. ...``, restated by quasi-reflexivity, so that it ends
  in a ``Conv`` node;
* ``s2-<depth>``: the same for a second-order tower
  ``\\f:Real->Real. \\x:Real. ...`` that applies ``f`` twice;
* ``q-<depth>``: a self-distance at ``Real -> Real`` obtained by
  quasi-reflexivity from the two-sided derivation of ``\\x:Real. ...``
  over a tower based on a free ``y``, where ``y`` is fed a literal triple
  ``(l, d, r)`` with ``d >= |l - r|``;
* ``m-<depth>``: a copy of ``q-<depth>`` whose literal distance is lowered
  below ``|l - r|``.  Every other node stays consistent, so a checker must
  reject the copy at a ``Lit`` node.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import towers  # noqa: E402
from lamdist.eqtheory import (derivation_to_json,  # noqa: E402
                              quasi_reflexive_derivation,
                              self_distance_derivation,
                              synthesize_fundamental)
from lamdist.eqtheory.judgments import (Derivation,  # noqa: E402
                                        DistanceJudgment)
from lamdist.syntax import REAL, Lit, parse_term  # noqa: E402

SEED = 2505
DEPTHS = (8, 9, 10)
OUT_DIR = os.path.join(HERE, "inputs", "derivations")


def _lit_node(l: Fraction, d: Fraction, r: Fraction) -> Derivation:
    return Derivation("Lit", DistanceJudgment((), Lit(l), Lit(d), Lit(r), REAL))


def _self_distance(source: str) -> Derivation:
    return quasi_reflexive_derivation(
        self_distance_derivation(parse_term(source)))


def _two_sided(levels, lit: Derivation) -> Derivation:
    fn = parse_term(r"\x:Real. " + towers.body_source(levels, base="y"))
    d = synthesize_fundamental((("y", REAL),), fn, {"y": lit})
    return quasi_reflexive_derivation(d)


def generate() -> dict[str, str]:
    """File name -> JSON text, a pure function of ``SEED``."""
    rng = random.Random(SEED)
    out = {}
    for depth in DEPTHS:
        out[f"s1-{depth}.json"] = derivation_to_json(_self_distance(
            towers.first_order_source(towers.mixed_tower(rng, depth))))
        out[f"s2-{depth}.json"] = derivation_to_json(_self_distance(
            towers.second_order_source(towers.mixed_tower(rng, depth, apps=2))))

        levels = towers.mixed_tower(rng, depth)
        l, r = towers.constant(rng), towers.constant(rng)
        while r == l:
            r = towers.constant(rng)
        gap = abs(l - r)
        d = gap + Fraction(rng.randint(0, 4), 8)
        out[f"q-{depth}.json"] = derivation_to_json(
            _two_sided(levels, _lit_node(l, d, r)))
        # undercut: a share in [0, 3/4] of the gap, strictly below it
        low = gap * Fraction(rng.randint(0, 3), 4)
        out[f"m-{depth}.json"] = derivation_to_json(
            _two_sided(levels, _lit_node(l, low, r)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare the files with a fresh generation")
    args = ap.parse_args(argv)
    files = generate()
    if args.check:
        stale = []
        for name, text in files.items():
            path = os.path.join(OUT_DIR, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    if fh.read() != text + "\n":
                        stale.append(name)
            except FileNotFoundError:
                stale.append(name)
        for name in stale:
            print(f"differs from seed {SEED}: {name}")
        print(f"{len(files) - len(stale)}/{len(files)} files match seed {SEED}")
        return 1 if stale else 0
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"wrote {len(files)} files to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
