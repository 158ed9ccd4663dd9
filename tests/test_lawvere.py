import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lamdist.quantale import lawvere as lv
from lamdist.quantale.lawvere import ExtReal, INFINITY, ZERO


rationals = st.fractions(min_value=0, max_value=1000)
elements = st.one_of(rationals.map(ExtReal), st.just(INFINITY))


def test_tensor_is_addition():
    assert lv.tensor(ExtReal("1.5"), ExtReal("2.5")) == ExtReal(4)


@given(elements)
def test_tensor_unit(x):
    assert lv.tensor(ZERO, x) == x
    assert lv.tensor(x, ZERO) == x


@given(elements)
def test_tensor_absorbing(x):
    assert lv.tensor(INFINITY, x) == INFINITY


def test_residual_truncated_subtraction():
    assert lv.residual(ExtReal(3), ExtReal(5)) == ExtReal(2)
    assert lv.residual(ExtReal(5), ExtReal(3)) == ZERO
    assert lv.residual(INFINITY, ExtReal(7)) == ZERO
    assert lv.residual(ExtReal(7), INFINITY) == INFINITY
    assert lv.residual(INFINITY, INFINITY) == ZERO


def test_residual_matches_brute_forced_join():
    # z + 3 >= 5 over a rational grid has infimum 2
    grid = [Fraction(i, 4) for i in range(0, 41)]
    sat = [z for z in grid if z + 3 >= 5]
    assert min(sat) == 2
    assert lv.residual(ExtReal(3), ExtReal(5)) == ExtReal(2)


@given(elements, elements, elements)
def test_adjunction(a, b, c):
    # c ⊑ a ⊸ b  iff  c ⊗ a ⊑ b
    assert lv.leq(c, lv.residual(a, b)) == lv.leq(lv.tensor(c, a), b)


@given(elements, elements)
def test_residual_laws(a, b):
    assert lv.leq(lv.tensor(lv.residual(a, b), a), b)
    assert lv.leq(b, lv.residual(a, lv.tensor(b, a)))


@given(elements, elements)
def test_divisibility(a, b):
    lhs = lv.leq(a, b)
    rhs = lv.tensor(b, lv.residual(b, a)) == a
    assert lhs == rhs


def test_order_is_reversed():
    assert lv.leq(ExtReal(5), ExtReal(2))
    assert not lv.leq(ExtReal(2), ExtReal(5))
    assert lv.leq(INFINITY, ExtReal(0))
    assert lv.join([ExtReal(3), ExtReal(1), ExtReal(2)]) == ExtReal(1)
    assert lv.meet([ExtReal(3), ExtReal(1)]) == ExtReal(3)
    assert lv.join([]) == INFINITY
    assert lv.meet([]) == ZERO


def test_construction_and_interop():
    assert float(ExtReal(0.5)) == 0.5
    assert float(INFINITY) == math.inf
    assert ExtReal(math.inf).is_infinite
    assert ExtReal("inf") == INFINITY
    assert ExtReal(Fraction(1, 3)).numerator_value == Fraction(1, 3)
    with pytest.raises(ValueError):
        ExtReal(-1)
    with pytest.raises(ValueError):
        ExtReal(math.nan)
    with pytest.raises(ValueError, match="negative infinity"):
        ExtReal(-math.inf)
    with pytest.raises(ValueError, match="no rational representation"):
        INFINITY.numerator_value


def test_equality_printing_and_reflected_comparisons():
    assert ExtReal(2) != 2 and ExtReal(2) != "2"
    assert repr(ExtReal(Fraction(1, 2))) == "ExtReal(1/2)"
    assert repr(INFINITY) == "ExtReal(inf)"
    assert (str(ExtReal(3)), str(INFINITY)) == ("3", "inf")
    # >= and > are <= and < reflected
    assert INFINITY >= ExtReal(5) > ExtReal(1) >= ExtReal(1)
    assert not ExtReal(1) > ExtReal(1)
    with pytest.raises(TypeError):
        ExtReal(1) >= 0
