import itertools

import pytest

from lamdist.quantale.finite import (FiniteQuantale, QuantaleStructureError,
                                     boolean, builtin, chain, parse_quantale,
                                     validate)


def test_boolean_satisfies_all_laws():
    assert validate(boolean()) == []


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_chains_satisfy_all_laws(k):
    assert validate(chain(k)) == []


def test_chain_shape():
    q = chain(2)
    assert q.elements == ("0", "1", "2", "inf")
    assert q.unit == q.index("0") == q.top
    assert q.bottom == q.index("inf")
    # capped addition
    assert q.tensor(q.index("1"), q.index("2")) == q.index("inf")
    assert q.tensor(q.index("1"), q.index("1")) == q.index("2")


def test_chain_residual_is_truncated_subtraction():
    q = chain(2)
    i = q.index
    assert q.residual(i("1"), i("2")) == i("1")
    assert q.residual(i("2"), i("1")) == i("0")
    assert q.residual(i("inf"), i("2")) == i("0")
    assert q.residual(i("0"), i("inf")) == i("inf")


def test_adjunction_exhaustive_on_builtins():
    for name in ("bool", "chain1", "chain2", "chain3"):
        q = builtin(name)
        m = len(q)
        for a, b, c in itertools.product(range(m), repeat=3):
            assert q.leq(c, q.residual(a, b)) == q.leq(q.tensor(c, a), b), \
                (name, q.elements[a], q.elements[b], q.elements[c])


def test_perturbed_tensor_is_reported_with_witness():
    q = chain(2)
    tensor = [list(row) for row in q._tensor]
    # break associativity: 1 ⊗ 2 = 2 instead of inf, so (1⊗1)⊗2 != 1⊗(1⊗2)
    one, two = q.index("1"), q.index("2")
    tensor[one][two] = tensor[two][one] = two
    bad = FiniteQuantale("bad", q.elements, q._leq, tensor, q.unit)
    violations = validate(bad)
    assert violations
    laws = {v.law for v in violations}
    assert "tensor.associative" in laws or "divisible" in laws
    witnessed = [v for v in violations if v.law == "tensor.associative"]
    assert witnessed and all(len(v.witness) == 3 for v in witnessed)


def test_structural_errors_raise_before_law_checking():
    with pytest.raises(QuantaleStructureError):
        FiniteQuantale("empty", (), [], [], 0)
    with pytest.raises(QuantaleStructureError):
        FiniteQuantale("dup", ("a", "a"), [[True, True], [False, True]],
                       [[0, 0], [0, 1]], 1)
    with pytest.raises(QuantaleStructureError):
        FiniteQuantale("oob", ("a", "b"), [[True, True], [False, True]],
                       [[0, 5], [0, 1]], 1)
    with pytest.raises(QuantaleStructureError):
        FiniteQuantale("badunit", ("a", "b"), [[True, True], [False, True]],
                       [[0, 0], [0, 1]], 7)
    with pytest.raises(QuantaleStructureError, match="leq table is not"):
        FiniteQuantale("short", ("a", "b"), [[True, True]],
                       [[0, 0], [0, 1]], 1)
    with pytest.raises(QuantaleStructureError, match="tensor table is not"):
        FiniteQuantale("ragged", ("a", "b"), [[True, True], [False, True]],
                       [[0, 0], [0]], 1)


QNT_TEXT = """
# the two-element frame
quantale mybool
elements bot top
order bot <= top
unit top
tensor bot bot = bot
tensor bot top = bot
tensor top top = top
"""


def test_parse_quantale_round_trip():
    q = parse_quantale(QNT_TEXT)
    assert q.name == "mybool"
    assert validate(q) == []
    assert q.unit == q.index("top")


def test_parse_quantale_errors():
    with pytest.raises(QuantaleStructureError):
        parse_quantale("elements a b\nunit a\n")  # missing tensor entries
    with pytest.raises(QuantaleStructureError):
        parse_quantale("nonsense line\n")
    with pytest.raises(QuantaleStructureError):
        parse_quantale("elements a\n")  # no unit
    with pytest.raises(QuantaleStructureError, match="no elements declared"):
        parse_quantale("unit a\n")
    for declared in ("elements a a", "elements a b\nelements b"):
        with pytest.raises(QuantaleStructureError,
                           match="^duplicate element names$"):
            parse_quantale(declared + "\nunit a\ntensor a a = a\n")


def test_missing_top_and_bottom_raise_on_every_access():
    # two incomparable elements: neither a top nor a bottom
    q = FiniteQuantale("antichain", ("a", "b"), [[True, False], [False, True]],
                       [[0, 1], [1, 1]], unit=0)
    for _ in range(2):
        with pytest.raises(QuantaleStructureError, match="no top"):
            q.top
        with pytest.raises(QuantaleStructureError, match="no bottom"):
            q.bottom
