"""The slow differential sweep: lamdist's conversion and derivation
checker against the references of ``tests/reference`` on seeded inputs
larger than the tier-1 suite's.

Run it from the repository root::

    python tests/reference_sweep.py [SEED]

It compares ``term_equal`` with the reference normalizer's equality on
5,000 pairs drawn from ``tests/gen.py``: closed functions and open terms
over two reals, each against itself, its eta-expansion, an identity
redex around it, and another term.  Then it compares ``check_derivation``
with the reference checker on 1,000 ``random_derivation``s, each with its
self-distance lift and its triangle lift through ``chain_partner``.  The
two must agree on every verdict, on the path of the first invalid node,
and on the type of any error raised.  It prints its seeds and each
disagreement, and exits 1 if there is one.  Standard library only.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lamdist.eqtheory import (check_derivation,  # noqa: E402
                              quasi_reflexive_derivation,
                              transitivity_derivation)
from lamdist.eqtheory.corpus import (chain_partner,  # noqa: E402
                                     random_derivation)
from lamdist.prims import DEFAULT_REGISTRY  # noqa: E402
from lamdist.syntax import REAL, FnType, term_equal  # noqa: E402
from lamdist.syntax.terms import App, Lam, Var  # noqa: E402

from gen import random_closed_fn_term, random_real_term  # noqa: E402
from reference.checker import check  # noqa: E402
from reference.normalizer import equal  # noqa: E402

PAIRS = 5_000
DERIVATIONS = 1_000
OPEN = (("x", REAL), ("y", REAL))
F = FnType(REAL, REAL)


def outcome(decide, *args):
    """``decide(*args)``, or the type of the error it raised; the two
    typing errors count as one."""
    try:
        return decide(*args)
    except TypeError:  # lamdist's TypecheckError and the reference's
        return TypeError
    except Exception as e:  # noqa: BLE001 - the error's type is the outcome
        return type(e)


def pairs(rng: random.Random):
    """``PAIRS`` (context, term, term) triples, four from each draw."""
    for i in range(PAIRS // 4):
        if i % 2:
            ctx, ty = OPEN, REAL
            t = random_real_term(rng, ("x", "y"), rng.randint(1, 6))
            other = random_real_term(rng, ("x", "y"), rng.randint(1, 6))
            redex = App(Lam("r", REAL, Var("r")), t)
        else:
            ctx, ty = (), F
            t = random_closed_fn_term(rng, rng.randint(1, 6))
            other = random_closed_fn_term(rng, rng.randint(1, 6))
            redex = App(Lam("g", F, Var("g")), t)
        expanded = Lam("z", REAL, App(t, Var("z"))) if ty is F else t
        for s in (t, expanded, redex, other):
            yield ctx, t, s


def derivations(rng: random.Random):
    """``DERIVATIONS`` random derivations, each with its two lifts."""
    for i in range(DERIVATIONS):
        d = random_derivation(rng, depth=rng.randint(1, 4))
        yield f"random-{i}", d
        yield f"quasi-refl-{i}", quasi_reflexive_derivation(d)
        yield f"chained-{i}", transitivity_derivation(
            d, chain_partner(d, rng))


def lamdist_check(d):
    result = check_derivation(d, DEFAULT_REGISTRY)
    return result.ok, result.path


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20261020
    print(f"pairs from seed {seed}, derivations from seed {seed + 1}")
    bad = 0
    for n, (ctx, t, s) in enumerate(pairs(random.Random(seed))):
        mine = outcome(term_equal, ctx, t, s)
        theirs = outcome(equal, ctx, t, s, DEFAULT_REGISTRY)
        if mine != theirs:
            bad += 1
            print(f"pair {n}: term_equal {mine}, reference {theirs}: "
                  f"{ctx} |- {t!r} = {s!r}")
    count = 0
    for name, d in derivations(random.Random(seed + 1)):
        count += 1
        mine = outcome(lamdist_check, d)
        theirs = outcome(check, d, DEFAULT_REGISTRY)
        if mine != theirs:
            bad += 1
            print(f"{name}: check_derivation {mine}, reference {theirs}")
    print(f"{PAIRS} pairs and {count} derivations compared: "
          f"{bad} disagreement(s)")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
