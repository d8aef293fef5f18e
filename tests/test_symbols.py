"""Words, chains, the shuffle-coproduct differential and antisymmetrisation."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (FlatModel, MultiVector, Poly, SymbolChain, bracket, differential_d,
                     hkr, pr1, pr1_top, vee, wedge)
from conhoch.errors import ModelMismatchError
from conhoch.words import _word_splits

from conftest import all_models, frame_field, monomials_up_to, rand_chain, rand_poly, var
from reference import chain_vee, shuffle_coproduct, shuffle_pairs, vee_collapse


def test_wedge_antisymmetry(m321):
    assert MultiVector.wedge_of_frames(m321, (1, 1)).is_zero()
    a = MultiVector.wedge_of_frames(m321, (1, 3))
    b = MultiVector.wedge_of_frames(m321, (3, 1))
    assert a == -b


def test_vee_symmetry():
    assert vee((1,), (3,)) == vee((3,), (1,)) == (1, 3)
    assert vee((1, 2), (2,)) == (1, 2, 2)


def test_tensor_bookkeeping(m321):
    t = SymbolChain.from_term(m321, [(1,), (2, 2)])
    assert t.arity == 2
    assert list(t.terms) == [((1,), (2, 2))]


def test_model_mismatch_rejected(m321):
    other = FlatModel(4, 3, 1)
    with pytest.raises(ModelMismatchError):
        SymbolChain.from_term(m321, [(1,)]) + SymbolChain.from_term(other, [(1,)])


def test_shuffle_coproduct_basics(m321):
    # both splittings of a two-letter word
    c = shuffle_coproduct(m321, (1, 2))
    assert c == (SymbolChain.from_term(m321, [(1,), (2,)])
                 + SymbolChain.from_term(m321, [(2,), (1,)]))
    # single letters map to zero
    assert shuffle_coproduct(m321, (1,)).is_zero()
    # coefficient rides along
    f = var(m321, 2)
    assert shuffle_coproduct(m321, (1, 2), f).coefficient([(1,), (2,)]) == f


def test_shuffle_split_count():
    # C(3,1) blocks of size one for a three-letter word
    pairs = list(shuffle_pairs((1, 2, 3)))
    assert sum(1 for left, _ in pairs if len(left) == 1) == 3
    assert len(pairs) == 6
    # the one splitting table against the shuffles, on every sorted word
    # of length <= 6 over letters 1-4: the proper splittings counted with
    # multiplicity are the shuffles, and all of them are the 2^k subsets
    # of positions
    for k in range(7):
        for word in itertools.combinations_with_replacement(range(1, 5), k):
            splits = _word_splits(word)
            proper = Counter()
            for left, right, n in splits[1:-1]:
                proper[left, right] += n
            assert proper == Counter(shuffle_pairs(word)), word
            assert sum(n for _, _, n in splits) == 2 ** k, word
            if k:
                assert splits[0][:2] == ((), word) and splits[-1][:2] == (word, ()), word


def test_differential_examples(m321):
    c = SymbolChain.from_term(m321, [(1, 3)])
    expected = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
                + SymbolChain.from_term(m321, [(3,), (1,)], -1))
    assert differential_d(c) == expected
    assert differential_d(SymbolChain.from_term(m321, [(1,), (2,)])).is_zero()


def test_differential_squares_to_zero_example(m321):
    c = SymbolChain.from_term(m321, [(1, 2, 3)])
    assert differential_d(differential_d(c)).is_zero()


def test_differential_squares_to_zero_randomized(m321):
    rng = random.Random(101)
    for _ in range(100):
        arity = rng.randint(1, 3)
        chain = rand_chain(rng, m321, arity, 4, 2)
        assert differential_d(differential_d(chain)).is_zero()


def test_rand_chain_rejects_a_degree_below_the_arity(m321):
    # each slot needs symmetric degree >= 1, so no such chain exists
    with pytest.raises(ValueError):
        rand_chain(random.Random(104), m321, 3, 2, 1)


def test_differential_preserves_gradings(m321):
    rng = random.Random(102)
    for _ in range(30):
        chain = rand_chain(rng, m321, rng.randint(1, 2), 4, 2)
        image = differential_d(chain)
        for gamma, slots, _ in image.monomials():
            k = sum(len(w) for w in slots)
            assert not chain.sym_degree_part(k).is_zero()
        assert {sum(g) for g, _, _ in image.monomials()} <= \
            {sum(g) for g, _, _ in chain.monomials()}


def test_shuffle_rebuild_scaling(m321):
    # multiplying the two coproduct blocks back together scales a length-k
    # word by 2^k - 2
    rng = random.Random(103)
    for k in range(2, 6):
        for _ in range(25):
            word = tuple(sorted(rng.randint(1, 3) for _ in range(k)))
            coeff = rand_poly(rng, 3, 2, 1)
            chain = shuffle_coproduct(m321, word, coeff)
            rebuilt = vee_collapse(chain)
            assert rebuilt == SymbolChain.from_term(m321, [word], coeff * (2 ** k - 2))


def test_hkr_degree_two(m321):
    c = hkr(MultiVector.wedge_of_frames(m321, (1, 3)))
    assert c.coefficient([(1,), (3,)]) == Poly.constant(3, Fraction(1, 2))
    assert c.coefficient([(3,), (1,)]) == Poly.constant(3, Fraction(-1, 2))


def test_hkr_rejects_degree_zero(m321):
    with pytest.raises(ValueError):
        MultiVector(m321, 0, {})


def test_hkr_image_is_closed(m321):
    rng = random.Random(104)
    for degree in (2, 3):
        for _ in range(20):
            idx = tuple(sorted(rng.sample(range(1, 4), degree)))
            x = MultiVector(m321, degree, {idx: rand_poly(rng, 3, 2)})
            assert differential_d(hkr(x)).is_zero()


def test_hkr_preserves_observability():
    # a monomial multivector and its antisymmetrised chain lie in the same
    # tagged classes: the multivector rule is the chain rule on
    # single-letter words
    from conhoch import chain_membership, mv_membership
    from conhoch.symbols import SubspaceTag

    for model in all_models(4):
        for degree in range(1, min(3, model.n_total) + 1):
            for gamma in monomials_up_to(model.n_total, 2):
                for idx in itertools.combinations(range(1, model.n_total + 1), degree):
                    x = MultiVector(model, degree, {idx: Poly.monomial(gamma)})
                    for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
                        assert mv_membership(x, tag) == chain_membership(hkr(x), tag), \
                            (model, gamma, idx, tag)


def test_pr1_top_examples(m321):
    half = Fraction(1, 2)
    anti = (SymbolChain.from_term(m321, [(1,), (3,)], half)
            + SymbolChain.from_term(m321, [(3,), (1,)], -half))
    assert pr1_top(anti) == MultiVector.wedge_of_frames(m321, (1, 3))
    sym = (SymbolChain.from_term(m321, [(1,), (3,)])
           + SymbolChain.from_term(m321, [(3,), (1,)]))
    assert pr1_top(sym).is_zero()
    higher = SymbolChain.from_term(m321, [(1,), (2, 2)])
    assert pr1_top(higher).is_zero()


def test_pr1_keeps_degree_one_part(m321):
    c = SymbolChain.from_term(m321, [(1,)]) + SymbolChain.from_term(m321, [(1, 2)])
    assert pr1(c) == SymbolChain.from_term(m321, [(1,)])


def test_chain_vee(m321):
    a = SymbolChain.from_term(m321, [(1,)], var(m321, 2))
    b = SymbolChain.from_term(m321, [(3,)])
    assert chain_vee(a, b) == SymbolChain.from_term(m321, [(1, 3)], var(m321, 2))


def test_wedge_of_multivectors(m321):
    a = MultiVector.wedge_of_frames(m321, (1,))
    b = MultiVector.wedge_of_frames(m321, (3,), var(m321, 2))
    assert wedge(a, b) == MultiVector.wedge_of_frames(m321, (1, 3), var(m321, 2))
    assert wedge(a, a).is_zero()


def test_bracket_of_fields(m321):
    # [x1 d2, d1] = -d2
    x = frame_field(m321, 2, var(m321, 1))
    y = frame_field(m321, 1, Poly.constant(3, 1))
    assert bracket(x, y) == frame_field(m321, 2, Poly.constant(3, -1))


def test_transpose(m321):
    c = SymbolChain.from_term(m321, [(1,), (2, 3)], var(m321, 1))
    assert c.transpose() == SymbolChain.from_term(m321, [(2, 3), (1,)], var(m321, 1))
    assert c.transpose().transpose() == c


def _canonical_poly(p: Poly, nvars: int) -> bool:
    """Stored terms are nvars non-negative int exponents to nonzero Fractions."""
    return p.nvars == nvars and all(
        type(e) is tuple and len(e) == nvars and all(type(i) is int and i >= 0 for i in e)
        and type(c) is Fraction and c != 0 for e, c in p.terms.items())


def _canonical_chain(x: SymbolChain, model: FlatModel, arity: int) -> bool:
    """Stored terms are arity sorted nonempty int words to nonzero
    canonical polynomials over the model."""
    return x.model == model and x.arity == arity and all(
        len(slots) == arity and all(
            type(w) is tuple and w and list(w) == sorted(w)
            and all(type(i) is int and 1 <= i <= model.n_total for i in w) for w in slots)
        and coeff and _canonical_poly(coeff, model.n_total) for slots, coeff in x.terms.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_trusted_arithmetic_matches_the_checked_constructor(seed, q):
    # every result the arithmetic builds through the trusted path equals
    # the same raw (key, value) pairs put through the checked constructor,
    # and stores only canonical terms; b and y repeat some terms of a and
    # x negated, so sums cancel
    rng = random.Random(seed)
    model = FlatModel(3, 2, 1)
    n = model.n_total
    a = rand_poly(rng, n, 3, 3)
    pa = list(a.terms.items())
    b = Poly(n, list(rand_poly(rng, n, 3, 2).terms.items())
             + [(e, -c) for e, c in pa if rng.random() < 0.5])
    pb = list(b.terms.items())
    i = rng.randint(1, n)
    for result, raw in [
            (a + b, pa + pb),
            (a - b, pa + [(e, -c) for e, c in pb]),
            (a * b, [(tuple(u + v for u, v in zip(ea, eb)), ca * cb)
                     for ea, ca in pa for eb, cb in pb]),
            (a * q, [(e, c * q) for e, c in pa]),
            (a.partial(i), [(e[:i - 1] + (e[i - 1] - 1,) + e[i:], c * e[i - 1])
                            for e, c in pa if e[i - 1]])]:
        assert result == Poly(n, raw)
        assert _canonical_poly(result, n)

    x = rand_chain(rng, model, 2, 4, 2, n_terms=3)
    px = list(x.terms.items())
    y = SymbolChain(model, 2, list(rand_chain(rng, model, 2, 4, 2).terms.items())
                    + [(k, -v) for k, v in px if rng.random() < 0.5])
    for result, arity, raw in [
            (x + y, 2, px + list(y.terms.items())),
            (x.scale(q), 2, [(k, v * q) for k, v in px]),
            (x.transpose(), 2, [((s2, s1), v) for (s1, s2), v in px]),
            (differential_d(x), 3, [(s[:j] + (left, right) + s[j + 1:], v * (-1) ** (j + 1))
                                    for s, v in px for j in range(2)
                                    for left, right in shuffle_pairs(s[j])])]:
        assert result == SymbolChain(model, arity, raw)
        assert _canonical_chain(result, model, arity)
