"""The derivation checker and the derivation builders, pinned by output.

Both goldens were recorded before the rules were stated once in
``judgments.py``; the rule table must reproduce them byte for byte.

* ``derivation_checks.json`` holds the (ok, path, message) of the
  checker on seeded mutants of valid derivations, and on hand-written
  derivations that reach the messages no mutant reaches.  The valid
  derivations are the random corpus, its self-distance and chaining
  lifts, synthesized self-distances over Real, pair and higher-order
  terms, components fed through binders, and the committed benchmark
  derivations (the ``m-*`` files among them are rejected at a ``Lit``
  node).  Each mutant changes one node: its rule tag, a dropped,
  added or shuffled premise, swapped subjects, or a subject, distance,
  type or context taken from another node.
* ``derivation_builders.json`` holds ``derivation_to_json`` of what each
  builder makes on a seeded set.
* ``judge_cli.json`` holds the exit code and standard output of
  ``lamdist --format json judge`` on the benchmark derivation files and
  ``corpus/golden_sin.json``, recorded before their reading and checking
  shared parses and types.

Regenerate all three with ``python -c "import sys; sys.path[:0] = ['src',
'tests']; import test_derivation_goldens as t; t.write_goldens()"`` run
from the repository root.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from lamdist.cli import main
from lamdist.eqtheory import (Derivation, DerivationFormatError,
                              DistanceJudgment, RULES, chain_partner,
                              check_derivation, derivation_from_json,
                              derivation_to_json,
                              quasi_reflexive_derivation, random_derivation,
                              self_distance_derivation,
                              synthesize_fundamental,
                              transitivity_derivation)
from lamdist.syntax import (FnType, Lit, PairType, PrimOp, REAL, Var,
                            parse_term)

HERE = Path(__file__).parent
CHECKS = HERE / "golden" / "derivation_checks.json"
BUILDERS = HERE / "golden" / "derivation_builders.json"
JUDGE = HERE / "golden" / "judge_cli.json"
BENCH_INPUTS = HERE.parent / "perfbench" / "inputs" / "derivations"
JUDGED = (*sorted(BENCH_INPUTS.glob("*.json")),
          HERE.parent / "corpus" / "golden_sin.json")

CLOSED = (
    "sin(1) + 2 * 3",
    "(\\x:Real. x * x) 1.5",
    "fst((1, 2)) + snd((3, 4))",
    "(1, \\x:Real. sin(x))",
    "\\x:Real. (x, x + 1)",
    "\\f:Real->Real. \\x:Real. f (f x)",
    "\\p:Real * Real. fst(p) * snd(p)",
    "\\g:(Real->Real)->Real. g (\\y:Real. y + 1)",
    "(\\f:Real->Real. f 2) (\\x:Real. x - 1)",
    "\\x:Real. \\y:Real. (y, cos(x))",
)
KINDS = ("rule", "drop", "add", "shuffle", "swap", "left", "right", "dist",
         "type", "ctx")


def lit_node(l, s, r, ctx=()):
    return Derivation("Lit", DistanceJudgment(
        ctx, Lit(Fraction(l)), Lit(Fraction(s)), Lit(Fraction(r)), REAL))


def with_components():
    """Open terms fed derivations for their free variables: the
    components are weakened under each binder they meet."""
    y = lit_node(1, Fraction(1, 2), Fraction(5, 4))
    fn = self_distance_derivation(parse_term("\\x:Real. sin(x) + 2"))
    pair = self_distance_derivation(parse_term("(0.5, \\z:Real. z * 3)"))
    ctx = (("y", REAL), ("f", FnType(REAL, REAL)),
           ("p", PairType(REAL, FnType(REAL, REAL))))
    comps = {"y": y, "f": fn, "p": pair}
    return [synthesize_fundamental(ctx, parse_term(src), comps)
            for src in ("\\x:Real. f (x + y)",
                        "\\w:Real. \\x:Real. (snd(p) w, f x)",
                        "fst(p) + y * 2",
                        "\\z:Real. \\w:Real. f (snd(p) (w + z))")]


def sources():
    """(name, valid derivation) pairs, drawn from one seed."""
    rng = random.Random(20261019)
    corpus = [random_derivation(rng) for _ in range(40)]
    out = [(f"random-{i}", d) for i, d in enumerate(corpus)]
    out += [(f"quasi-refl-{i}", quasi_reflexive_derivation(d))
            for i, d in enumerate(corpus[:20])]
    out += [(f"chained-{i}",
             transitivity_derivation(d, chain_partner(d, rng)))
            for i, d in enumerate(corpus[:20])]
    for i, src in enumerate(CLOSED):
        d = self_distance_derivation(parse_term(src))
        out += [(f"synth-{i}", d),
                (f"synth-quasi-refl-{i}", quasi_reflexive_derivation(d)),
                (f"synth-chained-{i}", transitivity_derivation(
                    d, self_distance_derivation(d.conclusion.right)))]
    out += [(f"components-{i}", d) for i, d in enumerate(with_components())]
    out += [(f"bench-{f.stem}", derivation_from_json(f.read_text("utf-8")))
            for f in sorted(BENCH_INPUTS.glob("*.json"))]
    return out


def nodes(d):
    """(path, node) of every node of ``d`` in preorder."""
    out, todo = [], [((), d)]
    while todo:
        path, node = todo.pop()
        out.append((path, node))
        todo.extend((path + (i,), p)
                    for i, p in reversed(tuple(enumerate(node.premises))))
    return out


def at(d, path, node):
    """``d`` with the node at ``path`` replaced by ``node``."""
    if not path:
        return node
    premises = list(d.premises)
    premises[path[0]] = at(premises[path[0]], path[1:], node)
    return replace(d, premises=tuple(premises))


def mutate(rng, node, kind, donor):
    """``node`` changed by one mutation of ``kind``, using ``donor``."""
    j, ps = node.conclusion, list(node.premises)
    if kind == "rule":
        return replace(node, rule=rng.choice(
            [r for r in RULES if r != node.rule]))
    if kind == "drop" and ps:
        del ps[rng.randrange(len(ps))]
    elif kind == "add":
        ps.insert(rng.randint(0, len(ps)), donor)
    elif kind == "shuffle" and len(ps) > 1:
        if rng.random() < 0.5:
            ps.reverse()
        else:
            rng.shuffle(ps)
    elif kind == "swap":
        j = replace(j, left=j.right, right=j.left)
    elif kind in ("left", "right", "dist", "ctx"):
        j = replace(j, **{kind: getattr(donor.conclusion, kind)})
    elif kind == "type":
        j = replace(j, ty=donor.conclusion.ty)
    return Derivation(node.rule, j, tuple(ps))


def mutants(rng, d, pool, count):
    """``count`` seeded one-node mutants of ``d``, with what they change."""
    inside = nodes(d)
    out = []
    for _ in range(count):
        path, node = rng.choice(inside)
        kind = rng.choice(KINDS)
        donor = rng.choice(inside if rng.random() < 0.5 else pool)[1]
        out.append((kind, path, at(d, path, mutate(rng, node, kind, donor))))
    return out


def hand_written():
    """Derivations for the messages that no seeded mutant reaches, and
    for a distance whose copy of the left arguments is not theirs."""
    one = lit_node(1, 0, 1)
    body = Derivation("Var", DistanceJudgment(
        (("x", REAL),), Var("x"), Var("x'"), Var("x"), REAL))
    xy = (("x", REAL), ("y", REAL))
    return {
        "unknown rule": Derivation("Magic", one.conclusion),
        "Var of two variables": Derivation("Var", DistanceJudgment(
            xy, Var("x"), Var("x'"), Var("y"), REAL)),
        "Var with another partner": Derivation("Var", DistanceJudgment(
            xy, Var("x"), Var("y'"), Var("x"), REAL)),
        "Prim over two primitives": Derivation("Prim", DistanceJudgment(
            (), PrimOp("sin", (Lit(1),)), PrimOp("sin_d", (Lit(1), Lit(0))),
            PrimOp("cos", (Lit(1),)), REAL), (one,)),
        "Prim distance at other left arguments": Derivation(
            "Prim", DistanceJudgment(
                (), PrimOp("sin", (Lit(1),)),
                PrimOp("sin_d", (Lit(2), Lit(0))), PrimOp("sin", (Lit(1),)),
                REAL), (one,)),
        "TransReal at an arrow": Derivation("TransReal", DistanceJudgment(
            (), parse_term("\\x:Real. 1"),
            parse_term("\\x:Real. \\x':Real. 0"), parse_term("\\x:Real. 1"),
            FnType(REAL, REAL)), (one, one)),
        "Abs binding the wrong type": Derivation("Abs", DistanceJudgment(
            (), parse_term("\\g:Real->Real. 1"),
            parse_term("\\g:Real->Real. \\g':Real->Real->Real. 0"),
            parse_term("\\g:Real->Real. 1"),
            FnType(FnType(REAL, REAL), REAL)), (body,)),
        "Fst at the pair type": Derivation("Fst", DistanceJudgment(
            (), parse_term("(1, 2)"), parse_term("(0, 0)"),
            parse_term("(1, 2)"), PairType(REAL, REAL)),
            (self_distance_derivation(parse_term("(1, 2)")),)),
    }


def outcome(d):
    r = check_derivation(d)
    return [r.ok, "/".join(map(str, r.path)), r.message]


def seeded_mutants():
    """(source name, its mutants) for every source, from one seed."""
    rng = random.Random(20261020)
    srcs = sources()
    pool = [n for _, d in srcs for n in nodes(d)]
    for name, d in srcs:
        count = 24 if name.startswith("bench-") else 14
        yield name, mutants(rng, d, pool, count)


def derivation_checks() -> dict:
    out = {"hand-written": {name: outcome(d)
                            for name, d in hand_written().items()}}
    for name, made in seeded_mutants():
        out[name] = [[kind, "/".join(map(str, path))] + outcome(m)
                     for kind, path, m in made]
    return out


def derivation_builders() -> dict:
    rng = random.Random(20261021)
    out = {}
    for i in range(12):
        d = random_derivation(rng, depth=rng.randint(1, 4))
        partner = chain_partner(d, rng)
        out[f"random-{i}"] = d
        out[f"chain-partner-{i}"] = partner
        out[f"quasi-refl-{i}"] = quasi_reflexive_derivation(d)
        out[f"chained-{i}"] = transitivity_derivation(d, partner)
    for i, src in enumerate(CLOSED):
        d = self_distance_derivation(parse_term(src))
        out[f"self-distance-{i}"] = d
        out[f"self-distance-quasi-refl-{i}"] = quasi_reflexive_derivation(d)
        out[f"self-distance-chained-{i}"] = transitivity_derivation(
            d, self_distance_derivation(d.conclusion.right))
    for i, d in enumerate(with_components()):
        out[f"components-{i}"] = d
    return {name: json.loads(derivation_to_json(d))
            for name, d in out.items()}


def judge_outputs() -> dict:
    """(exit code, standard output) of ``judge`` on each file of
    ``JUDGED``, keyed by its folder and name."""
    out = {}
    for f in JUDGED:
        with redirect_stdout(io.StringIO()) as printed:
            code = main(["--format", "json", "judge", str(f)])
        out[f"{f.parent.name}/{f.name}"] = [code, printed.getvalue()]
    return out


def write_goldens():
    """Write the three goldens, one entry a line."""
    for path, data in ((CHECKS, derivation_checks()),
                       (BUILDERS, derivation_builders()),
                       (JUDGE, judge_outputs())):
        lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in data.items())
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", "utf-8")


def test_every_source_derivation_but_the_undercut_files_is_valid():
    for name, d in sources():
        assert check_derivation(d).ok != name.startswith("bench-m-"), name


def test_checker_outcomes_match_golden():
    golden = json.loads(CHECKS.read_text("utf-8"))
    live = derivation_checks()
    assert list(live) == list(golden)
    for name in golden:
        assert live[name] == golden[name], name


def test_builder_outputs_match_golden():
    golden = json.loads(BUILDERS.read_text("utf-8"))
    live = derivation_builders()
    assert list(live) == list(golden)
    for name in golden:
        assert live[name] == golden[name], name


def test_judge_output_matches_golden():
    assert judge_outputs() == json.loads(JUDGE.read_text("utf-8"))


def test_mutants_read_back_from_text_check_as_in_memory():
    # the checks golden holds in-memory mutants; through the text format
    # the same derivations must read back to the same outcomes
    for name, made in seeded_mutants():
        for kind, path, m in made:
            text = derivation_to_json(m)
            assert outcome(derivation_from_json(text)) == outcome(m), (
                name, kind, path)
    for name, d in hand_written().items():
        if d.rule in RULES:
            assert outcome(derivation_from_json(derivation_to_json(d))) \
                == outcome(d), name
        else:  # the reader rejects an unknown rule tag before checking
            with pytest.raises(DerivationFormatError):
                derivation_from_json(derivation_to_json(d))
