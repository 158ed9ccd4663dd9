"""lamdist's derivation checker against the reference checker of
``tests/reference``, which reads the eleven rules from their documentation
and decides ``Conv`` nodes by its own normal forms.

On every derivation here the two agree on whether it is valid and, if
not, on the preorder path of its first invalid node; an evaluation error
must be raised by both.  The derivations are the benchmark's files, the
corpus derivation, and every source, hand-written derivation and seeded
mutant of ``test_derivation_goldens.py``.
"""

from pathlib import Path

from lamdist.eqtheory import check_derivation, derivation_from_json
from lamdist.prims import DEFAULT_REGISTRY

from reference.checker import check
from test_derivation_goldens import hand_written, seeded_mutants, sources

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "perfbench" / "inputs" / "derivations").glob(
    "*.json")) + [ROOT / "corpus" / "golden_sin.json"]


def outcome(decide, d):
    """``(valid, path of the first invalid node)``, or the type of the
    error ``decide`` raised."""
    try:
        return decide(d)
    except Exception as e:  # noqa: BLE001 - the error's type is the outcome
        return type(e)


def by_lamdist(d):
    result = check_derivation(d, DEFAULT_REGISTRY)
    return result.ok, result.path


def by_reference(d):
    return check(d, DEFAULT_REGISTRY)


def agreed(named) -> list:
    """The outcome of each named derivation, once both checkers are seen
    to reach it."""
    outcomes, disagreeing = [], []
    for name, d in named:
        mine, theirs = outcome(by_lamdist, d), outcome(by_reference, d)
        if mine != theirs:
            disagreeing.append((name, mine, theirs))
        outcomes.append(theirs)
    assert disagreeing == []
    return outcomes


def test_the_checkers_agree_on_the_benchmark_and_corpus_files():
    """The ``m-*`` files are rejected at a ``Lit`` node, the others valid."""
    named = [(path.name, derivation_from_json(path.read_text("utf-8")))
             for path in FILES]
    assert len(named) == 13
    verdicts = [ok for ok, _ in agreed(named)]
    assert verdicts == [not name.startswith("m-") for name, _ in named]
    assert False in verdicts


def test_the_checkers_agree_on_the_golden_sources_and_their_mutants():
    named = list(sources()) + list(hand_written().items())
    named += [(f"{name} {kind} at {path}", m)
              for name, made in seeded_mutants() for kind, path, m in made]
    outcomes = agreed(named)
    assert len(outcomes) > 2000
    assert 0 < outcomes.count((True, ())) < len(outcomes)
