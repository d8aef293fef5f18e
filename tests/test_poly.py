"""Exact polynomial arithmetic."""

import copy
import pickle
from fractions import Fraction

import pytest

from conhoch import (FlatModel, MultiDiffOp, MultiVector, Poly, SymbolChain, TruncatedStar,
                     VectorField, monomials_of_degree)

from conftest import rand_poly
import random


def test_add_inverse_cancels():
    x1 = Poly.monomial((1, 0, 0))
    assert (x1 + (-x1)).is_zero()


def test_partial_derivative_power_rule():
    # d/dx1 of x1^2 x3 = 2 x1 x3
    f = Poly.monomial((2, 0, 1))
    assert f.partial(1) == Poly.monomial((1, 0, 1), 2)


def test_binomial_product():
    x1 = Poly.monomial((1, 0, 0))
    x3 = Poly.monomial((0, 0, 1))
    assert (x1 + x3) * (x1 - x3) == x1 * x1 - x3 * x3


def test_partial_out_of_range():
    f = Poly.monomial((1, 0, 0))
    with pytest.raises(IndexError):
        f.partial(0)
    with pytest.raises(IndexError):
        f.partial(4)


def test_scalar_multiplication_and_subtraction():
    f = Poly.monomial((1, 0)) * Fraction(3, 2)
    assert f.coefficient((1, 0)) == Fraction(3, 2)
    assert (f - f).is_zero()
    assert (2 * Poly.monomial((0, 1))).coefficient((0, 1)) == 2


def test_mixed_variable_count_rejected():
    with pytest.raises(ValueError):
        Poly.monomial((1, 0)) + Poly.monomial((1, 0, 0))


def test_canonical_form_drops_zero_terms():
    p = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert list(p.terms) == [(1, 0)]


@pytest.mark.parametrize("poly, scalar", [
    (Poly.constant(2, 3), 3),
    (Poly.zero(2), 0),
    (Poly.constant(2, Fraction(-3, 4)), Fraction(-3, 4)),
], ids=["int-constant", "zero", "fraction-constant"])
def test_constant_hashes_as_its_scalar(poly, scalar):
    # a polynomial equal to a scalar must hash as it, so a set keeps one
    assert poly == scalar
    assert len({poly, scalar}) == 1 and len({scalar, poly}) == 1


def test_partial_word_iterates():
    f = Poly.monomial((2, 0, 1))
    assert f.partial_word((1, 3)) == Poly.monomial((1, 0, 0), 2)
    assert f.partial_word((1, 3)) == f.partial_word((3, 1))
    assert f.partial_word((3, 3)).is_zero()


def test_substitute_zero():
    f = Poly.monomial((1, 0, 1)) + Poly.monomial((0, 2, 0))
    assert f.substitute_zero([2]) == Poly.monomial((0, 2, 0))


def test_monomials_of_degree_counts_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0)  # x1^2 first
    assert len(set(ms)) == 6
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 1) == []


@pytest.mark.parametrize("degree", [-2, -1])
@pytest.mark.parametrize("nvars", range(5))
def test_monomials_of_a_negative_degree_are_none(nvars, degree):
    assert monomials_of_degree(nvars, degree) == []


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(50):
        f = rand_poly(rng, 3, 3)
        g = rand_poly(rng, 3, 3)
        h = rand_poly(rng, 3, 3)
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)


def test_leibniz_rule_randomized():
    rng = random.Random(8)
    for _ in range(50):
        f = rand_poly(rng, 3, 3)
        g = rand_poly(rng, 3, 3)
        i = rng.randint(1, 3)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_string_rendering():
    f = Poly.monomial((2, 0, 1)) - Poly.constant(3, Fraction(1, 2))
    assert str(f) == "x1^2*x3 - 1/2"
    assert str(Poly.zero(2)) == "0"


_M321 = FlatModel(3, 2, 1)


@pytest.mark.parametrize("build", [
    lambda: Poly(2, {(1.5, 0): 1}),
    lambda: Poly(2, {("1", True): 1}),
    lambda: Poly(2, {(True, 0): 1}),
    lambda: Poly(2, {(1, 0): 0.1}),
    lambda: Poly(2, {(1, 0): True}),
    lambda: Poly.constant(2, 0.5),
    lambda: Poly.monomial((1, 0)) * 0.5,
    lambda: SymbolChain(_M321, 1, {((1.0, 2),): Poly.constant(3, 1)}),
    lambda: SymbolChain(_M321, 1, {((True,),): Poly.constant(3, 1)}),
    lambda: MultiVector(_M321, 1, {(1.0,): Poly.constant(3, 1)}),
    lambda: MultiVector(_M321, 2, {(True, 2): Poly.constant(3, 1)}),
], ids=["float-exponent", "str-and-bool-exponent", "bool-exponent", "float-coefficient",
        "bool-coefficient", "float-constant", "float-scalar", "float-letter", "bool-letter",
        "float-index", "bool-index"])
def test_constructors_refuse_what_is_not_an_int_or_exact(build):
    # the constructors are the one check of outside input that the trusted
    # arithmetic relies on: a float or bool exponent, letter or index, or a
    # float coefficient, would otherwise be stored as an int or a binary
    # fraction
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: FlatModel(3.0, 2, 1),
    lambda: FlatModel(True, True, False),
    lambda: Poly(2.0, {(1, 0): 1}),
    lambda: Poly(True, {}),
    lambda: SymbolChain(_M321, 1.5, {}),
    lambda: SymbolChain(_M321, True, {}),
    lambda: MultiVector(_M321, 2.0, {}),
], ids=["float-dimension", "bool-dimensions", "float-nvars", "bool-nvars",
        "float-arity", "bool-arity", "float-degree"])
def test_sizes_and_grades_refuse_what_is_not_an_int(build):
    # a dimension, variable count or grade sizes tuples and ranges; a
    # float or bool would be compared and stored as if it were an int
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: SymbolChain(_M321, 1, {((1,),): 1}),
    lambda: MultiVector(_M321, 2, {(1, 2): 1}),
    lambda: VectorField(FlatModel(2, 1, 0), [1, 0]),
    lambda: MultiDiffOp(SymbolChain.from_term(_M321, [(1,)])).apply([Fraction(1)]),
], ids=["chain", "multivector", "vector-field", "operator-argument"])
def test_coefficients_and_arguments_refuse_what_is_not_a_polynomial(build):
    # a bare number where a polynomial belongs is an input error, not an
    # AttributeError from reading its variable count
    with pytest.raises(ValueError, match="is not a polynomial"):
        build()


_STAR = TruncatedStar(_M321, [MultiDiffOp(SymbolChain.from_term(_M321, [(1,), (2,)]))])


_CHAIN = SymbolChain.from_term(_M321, [(1,), (3,)], Poly.monomial((0, 1, 0)))
_VALUES = {
    "poly": (Poly.monomial((1, 0, 2)), ["nvars", "terms"]),
    "chain": (_CHAIN, ["model", "_grade", "terms"]),
    "multivector": (MultiVector.wedge_of_frames(_M321, (1, 3)), ["model", "terms"]),
    "vector-field": (VectorField(_M321, [Poly.monomial((1, 0, 0))] * 3),
                     ["model", "components"]),
    "operator": (MultiDiffOp(_CHAIN), ["symbol"]),
    "star": (_STAR, ["model", "cochains"]),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_values_refuse_rebinding_and_copy_through_their_constructor(name):
    # a built value keeps the fields its constructor checked: rebinding or
    # deleting one raises and leaves it as it was; copy, deepcopy and
    # pickle give a value of the same type with equal fields
    value, fields = _VALUES[name]

    def state(v):
        return type(v), [getattr(v, field) for field in fields]

    before = state(value)
    for field in fields:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    assert state(value) == before
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert state(clone(value)) == before


def test_star_cochains_cannot_grow():
    # the cochains are stored as a tuple, so the order of a built star
    # product stays the one its constructor checked
    assert _STAR.cochains == tuple(_STAR.cochains) and _STAR.order == 1
    with pytest.raises(AttributeError):
        _STAR.cochains.append("junk")
