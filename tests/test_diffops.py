"""Operators, the symbol calculus normalisation, the coboundary and the
chain-map identity between the two independent routes."""

import json
import os
import random
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (FlatModel, MultiDiffOp, MultiVector, Poly, SubspaceTag, SymbolChain,
                     VectorField, bracket, differential_d, op_membership, vf_membership)
from conhoch import hochschild, serialize

from conftest import all_models, polys, rand_chain, rand_field_in_class, var
from reference import (apply_by_partials, bracket_by_partials, chain_map_check,
                       hochschild_delta, monomial_argument_tuples, op_membership_functional,
                       operators_equal_on_window, sufficiency_degree)


def _nabla(x: VectorField, y: VectorField) -> VectorField:
    # the flat covariant derivative: Christoffel symbols vanish
    return VectorField(x.model, [x.apply(c) for c in y.components])


def test_sym_cov_derivative_examples(m321):
    # on the flat model the symmetrised covariant derivative at a sorted
    # index word is the iterated partial derivative
    f = var(m321, 1) * var(m321, 3)
    assert f.partial_word((1, 3)) == Poly.constant(3, 1)
    assert f.partial_word((1, 1)).is_zero()
    assert f.partial_word((2, 3)).is_zero()
    assert Poly.monomial((2, 0, 0)).partial_word((1,)) == Poly.monomial((1, 0, 0), 2)
    assert Poly.monomial((0, 3, 0)).partial_word((2, 2, 2)) == Poly.constant(3, 6)


def test_op_apply_normalisation(m321):
    # the basis word acts as the iterated partial derivative
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1, 3)]))
    assert op.apply([var(m321, 1) * var(m321, 3)]) == Poly.constant(3, 1)

    op = MultiDiffOp(SymbolChain.from_term(m321, [(1,)], var(m321, 2)))
    assert op.apply([Poly.monomial((2, 0, 0))]) == Poly.monomial((1, 1, 0), 2)

    op = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (3,)]))
    assert op.apply([var(m321, 1), var(m321, 3)]) == Poly.constant(3, 1)


def test_op_apply_matches_symmetrized_derivative(m321):
    # one-slot application is the iterated partial derivative, the
    # symmetrised covariant derivative of the flat calculus
    rng = random.Random(400)
    for _ in range(20):
        word = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        f = Poly.monomial(tuple(rng.randint(0, 2) for _ in range(3)))
        op = MultiDiffOp(SymbolChain.from_term(m321, [word]))
        assert op.apply([f]) == f.partial_word(word)


def test_op_apply_arity_mismatch(m321):
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (3,)]))
    with pytest.raises(ValueError):
        op.apply([var(m321, 1)])


def test_operators_vanish_on_constants(m321):
    # every slot carries symmetric degree >= 1, so constants die
    rng = random.Random(407)
    one = Poly.constant(3, 1)
    for _ in range(20):
        op = MultiDiffOp(rand_chain(rng, m321, 2, 3, 2))
        f = var(m321, 1) * var(m321, 2)
        assert op.apply([one, f]).is_zero()
        assert op.apply([f, one]).is_zero()


def test_delta_of_second_order_word(m321):
    # the order-two observable witness: delta of d1 v d3 is the symmetric
    # first-order bidifferential operator with both slot orders
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1, 3)]))
    expected = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
                + SymbolChain.from_term(m321, [(3,), (1,)], -1))
    assert hochschild_delta(op).symbol == expected


def test_delta_kills_vector_fields(m321):
    for i in (1, 2, 3):
        op = MultiDiffOp(SymbolChain.from_term(m321, [(i,)], var(m321, 2)))
        assert hochschild_delta(op).symbol.is_zero()


def test_delta_squares_to_zero_example(m321):
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1, 2, 3)]))
    assert hochschild_delta(hochschild_delta(op)).symbol.is_zero()


def test_delta_squares_to_zero_randomized(m321):
    rng = random.Random(401)
    for _ in range(60):
        op = MultiDiffOp(rand_chain(rng, m321, rng.randint(1, 2), 3, 2))
        assert hochschild_delta(hochschild_delta(op)).symbol.is_zero()


def test_delta_squares_to_zero_on_evaluation_window(m321):
    # the operator-equality route: evaluate the double coboundary on all
    # monomial tuples up to the sufficiency degree
    rng = random.Random(408)
    for _ in range(5):
        chain = rand_chain(rng, m321, 1, 2, 1)
        square = hochschild_delta(hochschild_delta(MultiDiffOp(chain)))
        zero = MultiDiffOp(SymbolChain.zero(m321, square.arity))
        assert operators_equal_on_window(square, zero, sufficiency_degree(chain) + 1)


def test_chain_map_examples(m321):
    assert chain_map_check(SymbolChain.from_term(m321, [(1, 3)]))
    assert chain_map_check(SymbolChain.from_term(m321, [(2,)]))
    assert chain_map_check(SymbolChain.from_term(m321, [(1, 1)], var(m321, 2)))


def test_chain_map_randomized_symbol_level(m321):
    # the coboundary computed from the operator formula agrees with the
    # shuffle differential of the symbol, exactly
    rng = random.Random(402)
    for _ in range(100):
        chain = rand_chain(rng, m321, rng.randint(1, 2), 3, 2)
        assert hochschild_delta(MultiDiffOp(chain)).symbol == differential_d(chain)


@st.composite
def chains(draw, max_arity=3, max_sym_degree=4):
    """A random chain of arity 1..max_arity on a model with at most four
    coordinates: up to three terms, total symmetric degree at most
    max_sym_degree, monomial coefficients of degree at most one."""
    model = draw(st.sampled_from(all_models(4)))
    arity = draw(st.integers(1, max_arity))
    n = model.n_total
    word = st.lists(st.integers(1, n), min_size=1, max_size=max_sym_degree - arity + 1)
    slots = st.lists(word, min_size=arity, max_size=arity).filter(
        lambda ws: sum(map(len, ws)) <= max_sym_degree)
    exponent = st.integers(0, n).map(lambda i: tuple(int(j == i) for j in range(1, n + 1)))
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = draw(st.lists(st.tuples(slots, exponent, scalar), max_size=3))
    return SymbolChain(model, arity, [(tuple(tuple(sorted(w)) for w in ws),
                                       Poly.monomial(e, q)) for ws, e, q in terms])


@settings(max_examples=60, deadline=None)
@given(chains())
def test_differentials_square_to_zero_and_commute(chain):
    # D o D = 0, delta o delta = 0 and Op(D phi) = delta(Op phi), each
    # decided exactly on symbols
    assert differential_d(differential_d(chain)).is_zero()
    op = MultiDiffOp(chain)
    assert hochschild_delta(hochschild_delta(op)).symbol.is_zero()
    assert chain_map_check(chain)


@st.composite
def operators(draw):
    """An operator of arity 1..3 on (3,2,1), (4,3,2), (5,3,1) or (6,4,2):
    up to three terms, slot words of length 1 or 2, and coefficients of
    up to two monomials of degree at most 2."""
    model = draw(st.sampled_from((FlatModel(3, 2, 1), FlatModel(4, 3, 2), FlatModel(5, 3, 1),
                                  FlatModel(6, 4, 2))))
    n = model.n_total
    word = st.lists(st.integers(1, n), min_size=1, max_size=2).map(lambda w: tuple(sorted(w)))
    exponent = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda ls: tuple(ls.count(i) for i in range(n)))
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.lists(st.tuples(exponent, scalar), min_size=1, max_size=2).map(
        lambda ts: Poly(n, ts))
    arity = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.tuples(*[word] * arity), coeff), max_size=3))
    return MultiDiffOp(SymbolChain(model, arity, terms))


@settings(max_examples=60, deadline=None)
@given(operators())
def test_delta_command_is_the_operator_level_coboundary(op):
    # the delta command takes the symbol differential of the operator; the
    # coboundary from the operator-level formula is the same operator, and
    # the two encode to the same JSON
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(serialize.op_to_json(op), fh)
        delta = hochschild.cmd_delta(op.model, SimpleNamespace(infile=path))
    expected = hochschild_delta(op)
    assert delta == expected
    assert json.dumps(serialize.op_to_json(delta)) == json.dumps(serialize.op_to_json(expected))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_op_apply_extends_the_monomial_evaluation(data):
    # apply runs the exponent kernel on every tuple of the arguments'
    # terms; the partial-derivative route must give the same polynomial,
    # and a zero argument or the zero operator gives zero
    chain = data.draw(chains())
    op, n = MultiDiffOp(chain), chain.model.n_total
    fs = [data.draw(polys(n, 4)) for _ in range(chain.arity)]
    assert op.apply(fs) == apply_by_partials(op, fs)
    assert MultiDiffOp(SymbolChain.zero(chain.model, chain.arity)).apply(fs) == Poly.zero(n)
    slot = data.draw(st.integers(0, chain.arity - 1))
    with_zero = fs[:slot] + [Poly.zero(n)] + fs[slot + 1:]
    assert op.apply(with_zero) == apply_by_partials(op, with_zero) == Poly.zero(n)


def _fields(model):
    n = model.n_total
    return st.lists(polys(n), min_size=n, max_size=n).map(lambda cs: VectorField(model, cs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_is_the_commutator_of_the_fields(data):
    # [X, Y]_j = X(Y_j) - Y(X_j) agrees with the double sum over
    # coordinates, is antisymmetric and satisfies the Jacobi identity
    model = data.draw(st.sampled_from(all_models(4)))
    x, y, z = (data.draw(_fields(model)) for _ in range(3))
    xy = bracket(x, y)
    assert xy == bracket_by_partials(x, y)
    assert [-c for c in xy.components] == list(bracket(y, x).components)
    cycle = (bracket(x, bracket(y, z)), bracket(y, bracket(z, x)), bracket(z, xy))
    assert all((a + b + c).is_zero() for a, b, c in zip(*(f.components for f in cycle)))


def test_functional_window_separates_operators(m321):
    rng = random.Random(403)
    for _ in range(25):
        a = rand_chain(rng, m321, rng.randint(1, 2), 3, 2)
        b = rand_chain(rng, m321, a.arity, 3, 2)
        window = max(sufficiency_degree(a), sufficiency_degree(b))
        equal = operators_equal_on_window(MultiDiffOp(a), MultiDiffOp(b), window)
        assert equal == (a == b)


def test_membership_examples(m321):
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1, 3)]))
    assert not op_membership(op, SubspaceTag.WOBS)
    # the witness: a null argument mapped outside the null class
    f = var(m321, 1) * var(m321, 3)
    assert m321.classify_function(f).value == "Null"
    assert op.apply([f]) == Poly.constant(3, 1)
    assert m321.classify_function(op.apply([f])).value != "Null"

    sym = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
           + SymbolChain.from_term(m321, [(3,), (1,)], -1))
    assert op_membership(MultiDiffOp(sym), SubspaceTag.WOBS)

    null_op = MultiDiffOp(SymbolChain.from_term(m321, [(2,)], var(m321, 3)))
    assert op_membership(null_op, SubspaceTag.NULL)
    assert op_membership_functional(null_op, SubspaceTag.NULL)


def test_membership_sides_agree_randomized(m321):
    rng = random.Random(404)
    for _ in range(40):
        op = MultiDiffOp(rand_chain(rng, m321, rng.randint(1, 2), 2, 2, n_terms=1))
        for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
            assert op_membership(op, tag) == \
                op_membership_functional(op, tag, max_degree=4), op.symbol


def test_flat_connection_constraint_conditions():
    # the three covariant-derivative conditions on sampled field pairs
    rng = random.Random(405)
    model = FlatModel(3, 2, 1)
    for _ in range(100):
        xw = rand_field_in_class(rng, model, SubspaceTag.WOBS)
        yw = rand_field_in_class(rng, model, SubspaceTag.WOBS)
        yn = rand_field_in_class(rng, model, SubspaceTag.NULL)
        xn = rand_field_in_class(rng, model, SubspaceTag.NULL)
        assert vf_membership(_nabla(xw, yw), SubspaceTag.WOBS)
        assert vf_membership(_nabla(xw, yn), SubspaceTag.NULL)
        assert vf_membership(_nabla(xn, yw), SubspaceTag.NULL)


def test_flat_connection_torsion_free(m321):
    rng = random.Random(406)
    for _ in range(20):
        comps = [Poly.monomial(tuple(rng.randint(0, 1) for _ in range(3)))
                 for _ in range(3)]
        x = VectorField(m321, comps)
        y = rand_field_in_class(rng, m321, SubspaceTag.WOBS)
        torsion = [a - b for a, b in zip(_nabla(x, y).components, _nabla(y, x).components)]
        assert torsion == list(bracket(x, y).components)


def test_monomial_argument_tuples_keep_their_order():
    # by total degree, then by the split of that degree over the arguments
    # in ascending lexicographic order; star-check reports the first triple
    # in this order on which the associator is nonzero (the sampled oracle
    # walks it; the library builds that triple from the least term)
    assert list(monomial_argument_tuples(FlatModel(2, 2, 0), 3, 2)) == [
        ((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 0), (1, 0)), ((0, 0), (0, 0), (0, 1)),
        ((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 1), (0, 0)), ((1, 0), (0, 0), (0, 0)),
        ((0, 1), (0, 0), (0, 0)), ((0, 0), (0, 0), (2, 0)), ((0, 0), (0, 0), (1, 1)),
        ((0, 0), (0, 0), (0, 2)), ((0, 0), (1, 0), (1, 0)), ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (0, 1), (1, 0)), ((0, 0), (0, 1), (0, 1)), ((0, 0), (2, 0), (0, 0)),
        ((0, 0), (1, 1), (0, 0)), ((0, 0), (0, 2), (0, 0)), ((1, 0), (0, 0), (1, 0)),
        ((1, 0), (0, 0), (0, 1)), ((0, 1), (0, 0), (1, 0)), ((0, 1), (0, 0), (0, 1)),
        ((1, 0), (1, 0), (0, 0)), ((1, 0), (0, 1), (0, 0)), ((0, 1), (1, 0), (0, 0)),
        ((0, 1), (0, 1), (0, 0)), ((2, 0), (0, 0), (0, 0)), ((1, 1), (0, 0), (0, 0)),
        ((0, 2), (0, 0), (0, 0))]


@pytest.mark.parametrize("symbol", [
    "x", None, Poly.constant(3, 1),
    MultiVector.wedge_of_frames(FlatModel(3, 2, 1), (1, 3)),
], ids=["str", "none", "poly", "multivector"])
def test_operators_are_built_from_symbol_chains(symbol):
    # an operator is its symbol, so anything else is refused as
    # check_poly refuses what is not a polynomial
    with pytest.raises(ValueError, match="is not a symbol chain"):
        MultiDiffOp(symbol)
