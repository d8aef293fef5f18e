"""Exact polynomial arithmetic."""

import copy
import itertools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (FlatModel, MultiDiffOp, MultiVector, Poly, SymbolChain, TruncatedStar,
                     VectorField, monomials_of_degree)

from conftest import FRACTIONS, SCALARS, all_models, polys, rand_poly
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
    # a word is refused whatever its order: the derivative along 2 is
    # already zero, and the letter 9 is out of range all the same
    for word in ((2, 9), (9, 2)):
        with pytest.raises(IndexError):
            f.partial_word(word)


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


def test_polynomials_are_not_scalars():
    # a polynomial adds, subtracts and compares with polynomials only (a
    # constant is Poly.constant), has no power, and like every value is
    # unhashable; only multiplication takes a scalar
    one = Poly.constant(2, 1)
    for refused in (lambda: one + 1, lambda: 1 + one, lambda: one - 1, lambda: 1 - one,
                    lambda: one ** 2, lambda: hash(one)):
        with pytest.raises(TypeError):
            refused()
    assert not one == 1 and one != 1 and not 1 == one
    assert (Poly.monomial((1, 0, 0)) == True) is False  # noqa: E712
    assert 2 * one == one * 2 == Poly.constant(2, 2)


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
    lambda: Poly.monomial((1, 0)).scale(0.5),
    lambda: SymbolChain.zero(_M321, 1).scale(0.5),
    lambda: SymbolChain.zero(_M321, 1).scale("2"),
    lambda: Poly.zero(3).scale(Poly.constant(3, 1)),
    lambda: MultiVector.zero(_M321, 2).scale(Poly.constant(2, 1)),
    lambda: SymbolChain.from_term(_M321, [(1,)]).scale(Poly.constant(2, 1)),
    lambda: SymbolChain(_M321, 1, {((1.0, 2),): Poly.constant(3, 1)}),
    lambda: SymbolChain(_M321, 1, {((True,),): Poly.constant(3, 1)}),
    lambda: MultiVector(_M321, 1, {(1.0,): Poly.constant(3, 1)}),
    lambda: MultiVector(_M321, 2, {(True, 2): Poly.constant(3, 1)}),
], ids=["float-exponent", "str-and-bool-exponent", "bool-exponent", "float-coefficient",
        "bool-coefficient", "float-constant", "float-scalar", "float-poly-scale",
        "float-chain-scale", "str-chain-scale", "poly-poly-scale",
        "short-poly-multivector-scale", "short-poly-chain-scale", "float-letter", "bool-letter",
        "float-index", "bool-index"])
def test_constructors_refuse_what_is_not_an_int_or_exact(build):
    # the constructors are the one check of outside input that the trusted
    # arithmetic relies on: a float or bool exponent, letter or index, or a
    # float coefficient, would otherwise be stored as an int or a binary
    # fraction; scale reads its factor (an exact scalar, or for a chain or
    # multivector a polynomial over the model's variables) before the
    # terms, so a zero map refuses a bad factor as a nonzero one does
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
    lambda: VectorField(_M321, [Poly.monomial((1, 0, 0))] * 3).apply(Fraction(1)),
    lambda: VectorField(_M321, [Poly.monomial((1, 0, 0))] * 3).apply(_chain()),
    lambda: VectorField(_M321, [Poly.zero(3)] * 3).apply(Fraction(1)),
    lambda: VectorField(_M321, [Poly.zero(3)] * 3).apply("not a poly"),
], ids=["chain", "multivector", "vector-field", "operator-argument", "field-argument",
        "field-chain-argument", "zero-field-argument", "zero-field-str-argument"])
def test_coefficients_and_arguments_refuse_what_is_not_a_polynomial(build):
    # a bare number where a polynomial belongs is an input error, not an
    # AttributeError from reading its variable count
    with pytest.raises(ValueError, match="is not a polynomial"):
        build()


def test_field_arguments_match_the_model():
    # a polynomial over another variable count is refused by zero and
    # nonzero fields alike
    for comp in (Poly.zero(3), Poly.monomial((1, 0, 0))):
        with pytest.raises(ValueError, match="does not match model"):
            VectorField(_M321, [comp] * 3).apply(Poly.monomial((1, 0)))


_STAR = TruncatedStar(_M321, [MultiDiffOp(SymbolChain.from_term(_M321, [(1,), (2,)]))])


def _chain():
    return SymbolChain.from_term(_M321, [(1,), (3,)], Poly.monomial((0, 1, 0)))


_VALUES = {
    "poly": lambda: Poly.monomial((1, 0, 2)),
    "chain": _chain,
    "multivector": lambda: MultiVector.wedge_of_frames(_M321, (1, 3)),
    "vector-field": lambda: VectorField(_M321, [Poly.monomial((1, 0, 0))] * 3),
    "operator": lambda: MultiDiffOp(_chain()),
    "star": lambda: TruncatedStar(_M321, [MultiDiffOp(_chain())] * 2),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_values_refuse_rebinding_and_copy_through_their_constructor(name):
    # a built value keeps what its constructor checked: rebinding or
    # deleting a field, or writing into a term map, raises and leaves it
    # equal to a second build; copy, deepcopy and pickle give an equal value
    value = _VALUES[name]()
    for field in value._fields:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    if hasattr(value, "terms"):
        with pytest.raises(TypeError):
            value.terms["junk"] = 0
    assert value == _VALUES[name]()
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert clone(value) == value


def test_star_cochains_cannot_grow():
    # the cochains are stored as a tuple, so the order of a built star
    # product stays the one its constructor checked
    assert _STAR.cochains == tuple(_STAR.cochains) and _STAR.order == 1
    with pytest.raises(AttributeError):
        _STAR.cochains.append("junk")


_CHAIN13 = SymbolChain.from_term(_M321, [(3, 1)], Poly.monomial((0, 1, 0)))
_WEDGE13 = MultiVector.wedge_of_frames(_M321, (1, 3), Poly.monomial((0, 1, 0)))


@pytest.mark.parametrize("lookup, expected", [
    (lambda: _CHAIN13.coefficient([(3, 1)]), Poly.monomial((0, 1, 0))),
    (lambda: _CHAIN13.coefficient([[1, 3]]), Poly.monomial((0, 1, 0))),
    (lambda: _CHAIN13.coefficient([(1,), (3,)]), ValueError),
    (lambda: Poly.monomial((1, 0, 2)).coefficient([1, 0, 2]), 1),
    (lambda: Poly.monomial((1, 0, 0)).coefficient((1, 0)), ValueError),
    (lambda: Poly.monomial((1, 0)).coefficient((1, 0, 0)), ValueError),
    (lambda: _WEDGE13.component([1, 3]), Poly.monomial((0, 1, 0))),
    (lambda: _WEDGE13.component((3, 1)), Poly.monomial((0, 1, 0), -1)),
    (lambda: _WEDGE13.component((3, 3)), Poly.zero(3)),
    (lambda: _WEDGE13.component((1,)), ValueError),
    (lambda: _WEDGE13.component((1, 3, 2)), ValueError),
    (lambda: _WEDGE13.component(("a", 2)), ValueError),
    (lambda: _WEDGE13.component((1, 9)), IndexError),
    (lambda: _WEDGE13.component((9, 9)), IndexError),
    (lambda: MultiVector.wedge_of_frames(_M321, (9, 9)), IndexError),
], ids=["unsorted-word", "list-word", "wrong-arity", "list-exponent", "short-exponent",
        "long-exponent", "list-indices", "unsorted-indices", "repeated-index", "short-indices",
        "long-indices", "str-index", "index-out-of-range", "repeated-index-out-of-range",
        "wedge-index-out-of-range"])
def test_lookups_read_keys_as_the_constructors_do(lookup, expected):
    # a lookup sorts each slot word as from_term does, and refuses a key
    # the constructor would refuse, rather than answering zero for it
    if isinstance(expected, type):
        with pytest.raises(expected):
            lookup()
    else:
        assert lookup() == expected


# ---------------------------------------------------------------------------
# the one arithmetic of the term maps (poly._Linear)
# ---------------------------------------------------------------------------

_MODELS = all_models(4)


def _term_maps(kind, model, grade):
    """Polynomials over the model's variables, or chains of arity grade,
    or multivectors of degree grade, with up to three terms."""
    n = model.n_total
    if kind == "poly":
        return polys(n)
    if kind == "chain":
        word = st.lists(st.integers(1, n), min_size=1, max_size=2).map(lambda w: tuple(sorted(w)))
        key, cls = st.tuples(*[word] * grade), SymbolChain
    else:
        key = st.sampled_from(list(itertools.combinations(range(1, n + 1), grade)))
        cls = MultiVector
    return st.lists(st.tuples(key, polys(n)), max_size=3).map(
        lambda ts: cls(model, grade, ts))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_term_maps_form_a_vector_space(data):
    # polynomials, chains and multivectors add, negate, scale and test
    # zero through one core, which must obey the vector-space laws; a zero
    # term map is false like a zero polynomial
    kind = data.draw(st.sampled_from(["poly", "chain", "multivector"]))
    model = data.draw(st.sampled_from(_MODELS))
    values = _term_maps(kind, model, data.draw(st.integers(1, min(2, model.n_total))))
    a, b, c = data.draw(values), data.draw(values), data.draw(values)
    q, r = data.draw(SCALARS), data.draw(SCALARS)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero() and not (a - a)
    assert -(-a) == a and a - b == a + (-b)
    assert bool(a) is not a.is_zero()
    assert a.scale(q).scale(r) == a.scale(q * r)
    if kind == "poly":
        assert a * q == a.scale(q) == q * a


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_term_maps_refuse_each_others_values(data):
    # a chain and a multivector of one model and grade, a polynomial over
    # the same variables and a scalar are different values: + and - raise
    # TypeError for every mixed pair, in both orders, as for polynomials,
    # and so does * for every pair but a polynomial and a scalar
    model = data.draw(st.sampled_from(_MODELS))
    grade = data.draw(st.integers(1, min(2, model.n_total)))
    values = {kind: data.draw(_term_maps(kind, model, grade))
              for kind in ("poly", "chain", "multivector")}
    values.update(int=data.draw(st.integers(-3, 3)), fraction=data.draw(FRACTIONS))
    for (kx, x), (ky, y) in itertools.permutations(values.items(), 2):
        if {kx, ky} <= {"int", "fraction"}:
            continue
        scalar_product = "poly" in (kx, ky) and {kx, ky} & {"int", "fraction"}
        for op in (operator.add, operator.sub) + (() if scalar_product else (operator.mul,)):
            with pytest.raises(TypeError):
                op(x, y)


@pytest.mark.parametrize("name", ["vector-field", "operator", "star"])
def test_polynomials_refuse_fields_operators_and_stars(name):
    # a field, an operator or a star product is another class of value,
    # not a scalar: the product with a polynomial raises TypeError in both
    # orders, where a float or bool scalar stays a ValueError
    p, value = _VALUES["poly"](), _VALUES[name]()
    for x, y in ((p, value), (value, p)):
        with pytest.raises(TypeError):
            x * y
    for scalar in (0.5, True):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            p * scalar
