"""Types and scopes are interned: one object per structure, kept while
something else refers to it."""

import copy
import gc
import pickle

import pytest

from lamdist.eqtheory import self_distance_derivation
from lamdist.syntax import FnType, REAL, parse_term, typecheck
from lamdist.syntax.parser import parse_type
from lamdist.syntax.terms import EMPTY_SCOPE, INTERNED, PairType, Scope

FN = FnType(REAL, REAL)


def test_independently_parsed_equal_types_are_one_object():
    text = "(Real -> Real) * Real -> Real * (Real -> Real)"
    assert parse_type(text) is parse_type(text)
    assert FnType(REAL, REAL) is FN
    assert typecheck((), parse_term(r"\x:Real. \y:Real. x")) is \
        parse_type("Real -> Real -> Real")


def test_the_interning_table_lets_go_of_a_dropped_type():
    chain = parse_term("".join(f"\\x{i}:Real. " for i in range(10_000))
                       + "x0")
    gc.collect()
    before = len(INTERNED)
    ty = typecheck((), chain)
    assert len(INTERNED) >= before + 9_990  # short suffixes may be live
    del ty
    gc.collect()
    assert len(INTERNED) == before


def test_types_are_immutable_and_copy_to_themselves():
    ty = PairType(FN, REAL)
    with pytest.raises(AttributeError, match="PairType is immutable"):
        ty.left = REAL
    assert copy.deepcopy(ty) is ty and copy.copy(REAL) is REAL
    assert pickle.loads(pickle.dumps(ty)) is ty


def test_a_scope_behaves_as_the_tuple_of_its_entries():
    entries = (("x", REAL), ("f", FN))
    scope = Scope.of(entries)
    assert scope is EMPTY_SCOPE.enter("x", REAL).enter("f", FN)
    assert scope is Scope.of(scope) and scope.parent is Scope.of(entries[:1])
    assert tuple(scope) == entries and scope == entries and entries == scope
    assert scope != entries[:1] and scope != list(entries)
    assert hash(scope) == hash(entries) and len(scope) == 2
    assert scope[-1] == ("f", FN) and scope[:1] == entries[:1]
    assert scope + (("y", REAL),) == entries + (("y", REAL),)
    assert repr(scope) == "Scope((('x', Real), ('f', (Real -> Real))))"
    assert not EMPTY_SCOPE and EMPTY_SCOPE == ()


def test_a_scope_knows_its_first_primed_name():
    assert Scope.of((("x", REAL), ("y'", REAL), ("z'", REAL))).primed == "y'"
    assert Scope.of((("x", REAL),)).primed is None


def test_judgments_of_one_context_share_its_scope():
    d = self_distance_derivation(parse_term(r"\x:Real. \y:Real. x * y"))
    inner = d.premises[0].premises[0].conclusion
    assert inner.ctx is Scope.of((("x", REAL), ("y", REAL)))
    assert d.premises[0].conclusion.ctx is inner.ctx.parent
    assert inner.dist_ctx == (("x", REAL), ("x'", REAL), ("y", REAL),
                              ("y'", REAL))
