"""Truncated star products: associativity, constraint property, brackets,
coisotropy and the order-one equivalence solvers."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conhoch import (FlatModel, MultiDiffOp, MultiVector, Poly, SubspaceTag,
                     SymbolChain, TruncatedStar, associator,
                     check_associativity, chain_membership,
                     classify_infinitesimal, coisotropy_check,
                     differential_d, equivalence_report, hkr,
                     is_constraint_star, poisson_from_star, vee)
from conhoch import starprod
from conhoch.diffops import apply_to_monomials, compose_symbols
from conhoch.decompose import normal_class_basis
from conhoch.errors import NotClosedError, NotConstraintError, PreconditionError

from conftest import rand_fraction, rand_poly, rand_tagged_chain, var
from reference import hochschild_delta, monomial_argument_tuples, sampled_defects


@pytest.fixture(autouse=True)
def _witness_defect_is_evaluated_from_the_cochains(monkeypatch):
    # every violation a star test reports carries the value of the
    # associator chain at its witness; that must be the order-r coefficient
    # of (f*g)*h - f*(g*h) evaluated from the cochains
    real = starprod._witness

    def checked(star, order, chain):
        violation = real(star, order, chain)
        assert violation.defect == starprod._associativity_defect(
            star, order, *violation.arguments)
        return violation
    monkeypatch.setattr(starprod, "_witness", checked)


def _hkr_star(model, indices):
    return TruncatedStar(model, [MultiDiffOp(hkr(MultiVector.wedge_of_frames(model, indices)))])


def test_star_apply_examples(m321):
    x1, x3 = var(m321, 1), var(m321, 3)
    mu0 = TruncatedStar(m321, [])
    assert mu0.apply(x1, x3) == [x1 * x3]

    star = _hkr_star(m321, (1, 3))
    assert star.apply(x1, x3) == [x1 * x3, Poly.constant(3, Fraction(1, 2))]
    assert star.apply(x3, x1) == [x1 * x3, Poly.constant(3, Fraction(-1, 2))]


def test_unit_is_neutral(m321):
    star = _hkr_star(m321, (1, 3))
    one = Poly.constant(3, 1)
    f = var(m321, 1) * var(m321, 2)
    assert star.apply(f, one) == [f, Poly.zero(3)]
    assert star.apply(one, f) == [f, Poly.zero(3)]


def test_associativity_examples(m321):
    assert check_associativity(_hkr_star(m321, (1, 3))) is None

    # a second-order slot makes the coboundary nonzero
    bad = TruncatedStar(m321, [MultiDiffOp(SymbolChain.from_term(m321, [(1, 1), (1,)]))])
    violation = check_associativity(bad)
    assert violation is not None and violation.order == 1

    shifted = TruncatedStar(m321, [
        MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (1, 3)))
                    - (SymbolChain.from_term(m321, [(1,), (3,)])
                       + SymbolChain.from_term(m321, [(3,), (1,)])))])
    assert check_associativity(shifted) is None


def test_first_order_bidifferential_operators_are_closed(m321):
    # any order-(1,1) cochain is a cocycle: associativity holds at order
    # one, matching the vanishing coboundary
    c1 = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (1,)]))
    assert differential_d(c1.symbol).is_zero()
    assert check_associativity(TruncatedStar(m321, [c1])) is None


def test_order_one_defect_is_the_coboundary(m321):
    rng = random.Random(800)
    from conftest import rand_chain
    for _ in range(20):
        c1 = MultiDiffOp(rand_chain(rng, m321, 2, 3, 1))
        star = TruncatedStar(m321, [c1])
        functional = check_associativity(star)
        symbolic = differential_d(c1.symbol).is_zero()
        assert (functional is None) == symbolic
        if functional is not None:
            # the witness defect equals minus the coboundary at the witness
            delta = hochschild_delta(c1)
            f, g, h = functional.arguments
            assert functional.defect == -delta.apply([f, g, h])


def _item3_star() -> TruncatedStar:
    # C1 = D(d1 v d1 v d1) is closed, so order one is associative; with
    # C2 = 0 the order-2 associator is C1 o_1 C1 - C1 o_2 C1, of order 6
    r = FlatModel(1, 1, 0)
    c1 = MultiDiffOp(differential_d(SymbolChain.from_term(r, [(1, 1, 1)])))
    return TruncatedStar(r, [c1, MultiDiffOp(SymbolChain.zero(r, 2))])


def test_associativity_beyond_the_old_sampling_window():
    star = _item3_star()
    violation = check_associativity(star)
    assert violation is not None and violation.order == 2
    assert not violation.defect.is_zero()
    x1 = Poly.monomial((1,))
    x1_4 = Poly.monomial((4,))
    assert starprod._associativity_defect(star, 2, x1, x1, x1_4) == Poly.constant(1, -216)
    # order one alone is associative
    assert check_associativity(star, 1) is None


def test_associator_at_order_one_is_minus_the_differential(m321):
    rng = random.Random(803)
    from conftest import rand_chain
    for _ in range(10):
        c1 = rand_chain(rng, m321, 2, 3, 1)
        star = TruncatedStar(m321, [MultiDiffOp(c1)])
        assert associator(star, 1) == -differential_d(c1)
    with pytest.raises(PreconditionError):
        associator(TruncatedStar(m321, []), 1)


def _cochains(model: FlatModel, max_word: int, max_order: int):
    """Small random arity-2 cochains: at most two terms, words of length
    up to max_word, total order up to max_order, monomial coefficients
    of degree at most one."""
    n = model.n_total
    word = st.lists(st.integers(1, n), min_size=1, max_size=max_word).map(
        lambda w: tuple(sorted(w)))
    exponent = st.integers(0, n).map(
        lambda i: tuple(int(j == i) for j in range(1, n + 1)))
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    term = st.tuples(word, word, exponent, scalar).filter(
        lambda t: len(t[0]) + len(t[1]) <= max_order)
    return st.lists(term, max_size=2).map(lambda ts: MultiDiffOp(SymbolChain(
        model, 2, [((w1, w2), Poly.monomial(e, q)) for w1, w2, e, q in ts])))


@pytest.mark.parametrize("model, max_word, max_order", [
    (FlatModel(1, 1, 0), 3, 4),
    (FlatModel(3, 2, 1), 2, 3),
])
def test_symbolic_associator_matches_sampled(model, max_word, max_order):
    # the exact associator chain and the oracle agree as operators on a
    # window that separates them, so the exact check reports the same
    # first violation as the sampled one
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(c1=_cochains(model, max_word, max_order), c2=_cochains(model, max_word, max_order))
    def check(c1, c2):
        star = TruncatedStar(model, [c1, c2])
        expected = None
        for order in (1, 2):
            op = MultiDiffOp(associator(star, order))
            for polys, defect in sampled_defects(star, order):
                assert op.apply(list(polys)) == defect, (order, polys)
                if expected is None and not defect.is_zero():
                    expected = (order, polys, defect)
        violation = check_associativity(star)
        if expected is None:
            assert violation is None
        else:
            assert (violation.order, violation.arguments, violation.defect) == expected

    check()


def test_is_constraint_star(m321):
    assert is_constraint_star(_hkr_star(m321, (1, 3)))
    assert not is_constraint_star(_hkr_star(m321, (2, 3)))
    sym = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
           + SymbolChain.from_term(m321, [(3,), (1,)], -1))
    assert is_constraint_star(TruncatedStar(m321, [MultiDiffOp(sym)]))


def test_poisson_from_star(m321):
    x = MultiVector.wedge_of_frames(m321, (1, 3))
    assert poisson_from_star(_hkr_star(m321, (1, 3))) == x

    sym = TruncatedStar(m321, [MultiDiffOp(
        SymbolChain.from_term(m321, [(1,), (3,)])
        + SymbolChain.from_term(m321, [(3,), (1,)]))])
    assert poisson_from_star(sym).is_zero()

    shifted = TruncatedStar(m321, [MultiDiffOp(
        hkr(x) + differential_d(SymbolChain.from_term(m321, [(1, 3)])))])
    assert poisson_from_star(shifted) == x


def test_poisson_requires_closed_first_cochain(m321):
    bad = TruncatedStar(m321, [MultiDiffOp(SymbolChain.from_term(m321, [(1, 1), (1,)]))])
    with pytest.raises(NotClosedError):
        poisson_from_star(bad)


def test_coisotropy_examples(m321):
    assert coisotropy_check(MultiVector.wedge_of_frames(m321, (1, 3)))
    assert not coisotropy_check(MultiVector.wedge_of_frames(m321, (2, 3)))
    assert coisotropy_check(MultiVector.zero(m321, 2))


def test_observable_bivectors_are_coisotropic():
    from conhoch import bivector_slice_basis
    from conftest import all_models

    for model in all_models(4):
        for c in (0, 1):
            for x in bivector_slice_basis(model, SubspaceTag.WOBS, c):
                assert coisotropy_check(x), (model, c, x)


def test_equivalence_examples(m321):
    c1 = MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (1, 3))))
    base = TruncatedStar(m321, [c1])

    # shift by the coboundary of a non-observable word: plain yes, constraint no
    shift = differential_d(SymbolChain.from_term(m321, [(1, 3)]))
    other = TruncatedStar(m321, [MultiDiffOp(c1.symbol + shift)])
    report = equivalence_report(base, other, 0)
    assert report["plain_equivalent"] and not report["constraint_equivalent"]
    assert report["S"].symbol == -SymbolChain.from_term(m321, [(1, 3)])

    # shift by an observable coboundary: constraint equivalence found
    pot = SymbolChain.from_term(m321, [(1, 1)], var(m321, 2))
    other = TruncatedStar(m321, [MultiDiffOp(c1.symbol + differential_d(pot))])
    report = equivalence_report(base, other, 0)
    assert report["constraint_equivalent"] and report["S"].symbol == -pot
    assert chain_membership(report["S"].symbol, SubspaceTag.WOBS)

    # identical stars: the zero map
    report = equivalence_report(base, TruncatedStar(m321, [c1]), 0)
    assert report["constraint_equivalent"] and report["S"].symbol.is_zero()


def test_the_plain_solve_runs_only_without_an_observable_potential(m321, monkeypatch):
    # an observable potential is a plain one too, so a constraint-equivalent
    # pair costs one solve and any other pair two
    from conhoch import cohomology
    real, tags = cohomology._solve_d, []
    monkeypatch.setattr(cohomology, "_solve_d",
                        lambda rhs, tag: tags.append(tag) or real(rhs, tag))
    base = _hkr_star(m321, (1, 3))
    c1 = base.cochain(1).symbol
    pot = SymbolChain.from_term(m321, [(1, 1)], var(m321, 2))
    for shift, plain, constraint, solves in [
            (differential_d(pot), True, True, [SubspaceTag.WOBS]),
            (differential_d(SymbolChain.from_term(m321, [(1, 3)])), True, False,
             [SubspaceTag.WOBS, None]),
            (c1, False, False, [SubspaceTag.WOBS, None])]:
        tags.clear()
        report = equivalence_report(base, TruncatedStar(m321, [MultiDiffOp(c1 + shift)]), 0)
        assert (report["plain_equivalent"], report["constraint_equivalent"]) == (plain, constraint)
        assert (report["S"] is None) is not plain
        assert tags == solves


def test_equivalence_preconditions(m321):
    base = _hkr_star(m321, (1, 3))
    not_constraint = _hkr_star(m321, (2, 3))
    with pytest.raises(PreconditionError):
        equivalence_report(base, not_constraint, 0)
    with pytest.raises(PreconditionError):
        equivalence_report(base, base, 1)  # order 2 not carried
    with pytest.raises(PreconditionError):
        equivalence_report(base, base, -1)


def test_star_cochains_are_operators_over_the_model(m321):
    # a bare symbol chain has a model and an arity too, but it is refused
    # as a cochain over another model or of another arity is
    chain = SymbolChain.from_term(m321, [(1,), (3,)])
    for cochains in ([chain], [MultiDiffOp(chain), "x"],
                     [MultiDiffOp(SymbolChain.from_term(FlatModel(3, 3, 0), [(1,), (3,)]))],
                     [MultiDiffOp(SymbolChain.from_term(m321, [(1,)]))]):
        with pytest.raises(PreconditionError):
            TruncatedStar(m321, cochains)


@pytest.mark.parametrize("r", [0, -1, 3, True, 1.0],
                         ids=["zero", "negative", "above-order", "bool", "float"])
def test_cochain_order_is_between_one_and_the_star_order(m321, r):
    # C_r exists for 1 <= r <= order; an index from the end of the tuple
    # (r = 0 reads C_2 and r = -1 reads C_1) or past it is refused
    first = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (3,)]))
    second = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (1,)]))
    star = TruncatedStar(m321, [first, second])
    assert star.cochain(1) is first and star.cochain(2) is second
    with pytest.raises(PreconditionError):
        star.cochain(r)


def test_stars_compare_by_model_and_cochains(m321):
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1,), (3,)]))
    star = TruncatedStar(m321, [op])
    assert star == copy.deepcopy(star) == TruncatedStar(m321, star.cochains)
    assert star != TruncatedStar(m321, [op, op])
    assert star != TruncatedStar(m321, [MultiDiffOp(op.symbol.scale(2))])


def _second_order_term(m321, scale) -> MultiDiffOp:
    # slotwise square of the antisymmetric pairing on (d1, d3)
    terms = (SymbolChain.from_term(m321, [(1, 1), (3, 3)])
             + SymbolChain.from_term(m321, [(1, 3), (1, 3)], -2)
             + SymbolChain.from_term(m321, [(3, 3), (1, 1)]))
    return MultiDiffOp(terms.scale(scale))


def test_second_order_exponential_star_is_associative(m321):
    # with C_1 the antisymmetrisation of d1 ^ d3, the order-2 coefficient
    # of the exponential product is 1/8 of the slotwise square; any other
    # scaling violates associativity exactly at order 2
    c1 = MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (1, 3))))
    good = TruncatedStar(m321, [c1, _second_order_term(m321, Fraction(1, 8))])
    assert check_associativity(good, 2) is None

    bad = TruncatedStar(m321, [c1, _second_order_term(m321, Fraction(1, 4))])
    violation = check_associativity(bad, 2)
    assert violation is not None and violation.order == 2

    # the exponential second-order term is not constraint (its mixed-word
    # square maps a pair of null arguments to a non-null function), so
    # being constraint is a genuine extra condition beyond order one
    assert not is_constraint_star(good)
    mixed = MultiDiffOp(SymbolChain.from_term(m321, [(1, 3), (1, 3)]))
    witness = var(m321, 1) * var(m321, 3)
    assert mixed.apply([witness, witness]) == Poly.constant(3, 1)


def test_equivalence_step_at_order_two(m321):
    # stars with vanishing first-order term and closed constraint
    # second-order terms: the solver works at the next order
    c2 = hkr(MultiVector.wedge_of_frames(m321, (1, 2)))
    zero1 = MultiDiffOp(SymbolChain.zero(m321, 2))
    base = TruncatedStar(m321, [zero1, MultiDiffOp(c2)])

    pot = SymbolChain.from_term(m321, [(1, 1)], var(m321, 2))
    shifted = TruncatedStar(m321, [zero1, MultiDiffOp(c2 + differential_d(pot))])
    report = equivalence_report(base, shifted, 1)
    assert report["order"] == 2
    assert report["constraint_equivalent"] and report["S"].symbol == -pot

    normal = SymbolChain.from_term(m321, [(1, 3)])
    separated = TruncatedStar(m321, [zero1, MultiDiffOp(c2 + differential_d(normal))])
    report = equivalence_report(base, separated, 1)
    assert report["plain_equivalent"] and not report["constraint_equivalent"]


def test_classify_examples(m321):
    sym = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
           + SymbolChain.from_term(m321, [(3,), (1,)], -1))
    cls = classify_infinitesimal(MultiDiffOp(sym))
    assert cls.bivector.is_zero()
    assert cls.normal_part == SymbolChain.from_term(m321, [(1, 3)])

    x12 = MultiVector.wedge_of_frames(m321, (1, 2))
    cls = classify_infinitesimal(MultiDiffOp(hkr(x12)))
    assert cls.bivector == x12 and cls.normal_part.is_zero()

    x13 = MultiVector.wedge_of_frames(m321, (1, 3))
    psi = SymbolChain.from_term(m321, [(1, 1, 3)])
    cls = classify_infinitesimal(MultiDiffOp(hkr(x13) + differential_d(psi)))
    assert cls.bivector == x13 and cls.normal_part == psi


def test_classify_rejections(m321):
    with pytest.raises(NotConstraintError):
        classify_infinitesimal(MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (2, 3)))))
    with pytest.raises(NotClosedError):
        classify_infinitesimal(MultiDiffOp(SymbolChain.from_term(m321, [(1, 1), (1,)])))


def test_classify_invariant_under_observable_shifts(m321):
    rng = random.Random(801)
    c1 = (hkr(MultiVector.wedge_of_frames(m321, (1, 3)))
          + differential_d(SymbolChain.from_term(m321, [(1, 1, 3)])))
    reference = classify_infinitesimal(MultiDiffOp(c1))
    for _ in range(20):
        K = rng.choice((2, 3))
        c = rng.choice((0, 1))
        b = rand_tagged_chain(rng, m321, 1, K, c, "wobs", n_terms=2)
        cls = classify_infinitesimal(MultiDiffOp(c1 + differential_d(b)))
        assert cls.bivector == reference.bivector
        assert cls.normal_part == reference.normal_part


def test_normal_shifts_separate_constraint_classes(m321):
    # stars shifted by the coboundary of a normal-word element stay plainly
    # equivalent but never constraint equivalent, and the classifier
    # recovers the shift exactly; quantified over several base cochains
    bases = [
        MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (1, 3)))),
        MultiDiffOp(SymbolChain.from_term(m321, [(1,), (3,)], -1)
                    + SymbolChain.from_term(m321, [(3,), (1,)], -1)),
        MultiDiffOp(SymbolChain.zero(m321, 2)),
    ]
    for c1 in bases:
        base = TruncatedStar(m321, [c1])
        expected = classify_infinitesimal(c1)
        for K in (2, 3):
            for c in (0, 1):
                for psi in normal_class_basis(m321, K, c):
                    shifted = TruncatedStar(
                        m321, [MultiDiffOp(c1.symbol + differential_d(psi))])
                    report = equivalence_report(base, shifted, 0)
                    assert report["plain_equivalent"]
                    assert not report["constraint_equivalent"]
                    cls = classify_infinitesimal(shifted.cochain(1))
                    assert cls.bivector == expected.bivector
                    assert cls.normal_part == expected.normal_part + psi


def test_bracket_matches_ambient_class_map(m321):
    # extracting the bracket of a closed constraint first cochain agrees
    # with the ambient bivector of its classification
    rng = random.Random(802)
    for _ in range(15):
        x = MultiVector.zero(m321, 2)
        from conhoch import bivector_slice_basis
        for mv in bivector_slice_basis(m321, SubspaceTag.WOBS, rng.choice((0, 1))):
            if rng.random() < 0.5:
                x = x + mv.scale(rand_fraction(rng))
        psi = SymbolChain.zero(m321, 1)
        for b in normal_class_basis(m321, 2, 0):
            if rng.random() < 0.5:
                psi = psi + b.scale(rand_fraction(rng))
        c1 = MultiDiffOp(hkr(x) + differential_d(psi))
        star = TruncatedStar(m321, [c1])
        assert poisson_from_star(star) == x
        assert classify_infinitesimal(c1).bivector == x


def _moyal(model, pairs, order, rescaled=None):
    """The Moyal star (Groenewold 1946, Moyal 1949) truncated at order k:
    C_r = P^{vr} / r! for the bivector symbol P = 1/2 sum (d_i (x) d_j -
    d_j (x) d_i) over the (i, j) pairs, the powers taken slotwise with
    vee; rescaled = (r, q) multiplies C_r by q."""
    bivector = MultiVector.zero(model, 2)
    for pair in pairs:
        bivector = bivector + MultiVector.wedge_of_frames(model, pair)
    p = power = hkr(bivector)
    cochains = []
    for r in range(1, order + 1):
        if r > 1:
            power = SymbolChain(model, 2, [((vee(a1, b1), vee(a2, b2)), ca * cb)
                                           for (a1, a2), ca in power.terms.items()
                                           for (b1, b2), cb in p.terms.items()])
        c = power.scale(Fraction(1, math.factorial(r)))
        if rescaled is not None and rescaled[0] == r:
            c = c.scale(rescaled[1])
        cochains.append(MultiDiffOp(c))
    return TruncatedStar(model, cochains)


_CANONICAL = FlatModel(4, 4, 0), [(1, 3), (2, 4)]


def test_moyal_stars_are_associative_at_high_order():
    # the Moyal star is associative at every order; on (6,5,1) with the
    # bivector on the D-perp letters 2-5 it is a constraint star too
    assert check_associativity(_moyal(*_CANONICAL, 5)) is None
    star = _moyal(FlatModel(6, 5, 1), [(2, 4), (3, 5)], 4)
    assert is_constraint_star(star) and check_associativity(star) is None


@pytest.mark.parametrize("r", [2, 3, 4])
def test_a_rescaled_moyal_cochain_fails_at_its_order_on_least_words(r):
    # doubling C_r leaves orders below r associative and makes A_r =
    # -D(C_r), which is nonzero; the witness holds the words of a least
    # term of A_r, each argument the monomial of its word's letters
    star = _moyal(*_CANONICAL, 4, rescaled=(r, 2))
    violation = check_associativity(star)
    assert violation.order == r
    chain = associator(star, r)
    least = min(sum(map(len, s)) for s in chain.terms)
    assert tuple(next(iter(a.terms)) for a in violation.arguments) in {
        tuple(tuple(map(w.count, range(1, 5))) for w in s)
        for s in chain.terms if sum(map(len, s)) == least}
    if r == 2:
        # the first nonzero triple of the window walk, as the sampled
        # oracle finds it
        op = MultiDiffOp(chain)
        first = next(args for args in monomial_argument_tuples(star.model, 3, least)
                     if apply_to_monomials(op, args))
        assert violation.arguments == tuple(Poly.monomial(e) for e in first)
    if r == 4:
        assert violation.arguments == (var(star.model, 1), Poly.monomial((3, 0, 0, 0)),
                                       Poly.monomial((0, 0, 4, 0)))
        assert violation.defect == Poly.constant(4, Fraction(3, 2))


def test_a_derivation_gauge_is_outside_what_the_report_decides():
    # the constraint Moyal star on (6,5,1) gauged by T = id + hbar X, X =
    # x2 d2 an observable derivation: f *' g = T^-1(Tf * Tg) is associative
    # and constraint with C'_1 = C_1, so the two stars are equivalent, yet
    # no map id + hbar^2 S joins them, and that is all the report decides
    model = FlatModel(6, 5, 1)
    star = _moyal(model, [(2, 4), (3, 5)], 2)
    c1, c2 = (c.symbol for c in star.cochains)
    x = SymbolChain.from_term(model, [(2,)], var(model, 2))
    # X(f) X(g) = x2^2 d2 f d2 g is the cross term of X o X on a product
    x_times_x = differential_d(compose_symbols(x, x, 1)).scale(Fraction(-1, 2))
    assert x_times_x == SymbolChain.from_term(model, [(2,), (2,)], var(model, 2) * var(model, 2))
    c2_gauged = (c2 + compose_symbols(c1, x, 1) + compose_symbols(c1, x, 2)
                 - compose_symbols(x, c1, 1) + x_times_x)
    gauged = TruncatedStar(model, [MultiDiffOp(c1), MultiDiffOp(c2_gauged)])

    rng = random.Random(34)
    op = MultiDiffOp(x)
    for _ in range(4):
        f, g = (rand_poly(rng, model.n_total, 3, 3) for _ in range(2))
        tf, tg = op.apply([f]), op.apply([g])
        # the orders 0-2 of Tf * Tg, then T^-1 = id - hbar X + hbar^2 X^2
        p0, p1, p2 = star.apply(f, g)
        p1 = p1 + tf * g + f * tg
        p2 = p2 + star.cochain(1).apply([tf, g]) + star.cochain(1).apply([f, tg]) + tf * tg
        assert gauged.apply(f, g) == [p0, p1 - op.apply([p0]),
                                      p2 - op.apply([p1]) + op.apply([op.apply([p0])])]

    for s in (star, gauged):
        assert is_constraint_star(s) and check_associativity(s) is None
    report = equivalence_report(star, gauged, 1)
    assert (report["plain_equivalent"], report["constraint_equivalent"], report["S"]) == \
        (False, False, None)
