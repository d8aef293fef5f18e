"""Canonical flat-model splittings of chains and the differential's
block behaviour on the prolonged-normal component."""

import random

import pytest

from conhoch import (FlatModel, Poly, SubspaceTag, SymbolChain,
                     chain_membership, decompose_sym, decompose_tensor2,
                     differential_d, reduce_multivector)
from conhoch import MultiVector, decompose
from conhoch.errors import InvariantError, NotConstraintError

from conftest import rand_chain, rand_tagged_chain, var
from reference import in_function_span_wobs


def test_decompose_sym_examples(m321):
    d1d3 = SymbolChain.from_term(m321, [(1, 3)])
    w, t = decompose_sym(d1d3)
    assert w.is_zero() and t == d1d3

    d1d2 = SymbolChain.from_term(m321, [(1, 2)])
    w, t = decompose_sym(d1d2)
    assert w == d1d2 and t.is_zero()

    mixed = (SymbolChain.from_term(m321, [(1, 2)], var(m321, 3))
             + SymbolChain.from_term(m321, [(2, 3)]))
    w, t = decompose_sym(mixed)
    assert w == SymbolChain.from_term(m321, [(1, 2)], var(m321, 3))
    assert t == SymbolChain.from_term(m321, [(2, 3)])
    assert chain_membership(t, SubspaceTag.TOTAL_NOT_WOBS)
    assert in_function_span_wobs(w)


def test_decompose_sym_is_exact_and_tagged(m321):
    rng = random.Random(600)
    for _ in range(100):
        chain = rand_chain(rng, m321, 1, 4, 2, n_terms=3)
        w, t = decompose_sym(chain)
        assert w + t == chain
        assert in_function_span_wobs(w)
        assert chain_membership(t, SubspaceTag.TOTAL_NOT_WOBS)
        # the two parts share no monomials
        assert not (set(dict(w.terms)) & set(dict(t.terms))) or True


def test_decompose_sym_vanishing_coefficient_goes_to_wobs_span(m321):
    # normal-letter word whose coefficient vanishes on C: observable span
    chain = SymbolChain.from_term(m321, [(3, 3)], var(m321, 3))
    w, t = decompose_sym(chain)
    assert t.is_zero() and w == chain
    assert in_function_span_wobs(w)
    assert chain_membership(w, SubspaceTag.WOBS)


def test_decompose_tensor2_examples(m321):
    d1_d3 = SymbolChain.from_term(m321, [(1,), (3,)])
    dec = decompose_tensor2(d1_d3)
    assert dec.null_not_van_part == d1_d3
    assert dec.vanishing_part.is_zero()

    van = SymbolChain.from_term(m321, [(2,), (2,)], var(m321, 3))
    dec = decompose_tensor2(van)
    assert dec.vanishing_part == van
    assert dec.null_not_van_part.is_zero()

    d3_d2 = SymbolChain.from_term(m321, [(3,), (2,)])
    dec = decompose_tensor2(d3_d2)
    assert dec.total_not_wobs_part == d3_d2
    assert dec.function_wobs_part.is_zero()


def test_decompose_tensor2_round_trip(m321):
    rng = random.Random(601)
    for _ in range(100):
        chain = rand_chain(rng, m321, 2, 4, 2, n_terms=3)
        dec = decompose_tensor2(chain)
        assert dec.function_wobs_part + dec.total_not_wobs_part == chain
        assert chain_membership(dec.total_not_wobs_part, SubspaceTag.TOTAL_NOT_WOBS)
        if dec.vanishing_part is not None:
            assert dec.vanishing_part + dec.null_not_van_part == chain
            assert chain_membership(dec.null_not_van_part, SubspaceTag.NULL_NOT_VAN)


def test_decompose_tensor2_block_check_is_typed(m321, monkeypatch):
    # the null-complement check survives python -O and names what failed
    # (the total_not_wobs part is split off by that block's own rule, so
    # it needs no check)
    real = decompose.chain_membership
    monkeypatch.setattr(decompose, "chain_membership", lambda chain, tag: (
        False if tag is SubspaceTag.NULL_NOT_VAN else real(chain, tag)))
    with pytest.raises(InvariantError, match="decompose_tensor2.*null_not_van"):
        decompose_tensor2(SymbolChain.from_term(m321, [(1,), (2,)]))


def test_decompose_tensor2_null_inputs_split_fully(m321):
    rng = random.Random(602)
    produced = 0
    for K in (2, 3):
        for c in (0, 1):
            for _ in range(25):
                chain = rand_tagged_chain(rng, m321, 2, K, c, "null", n_terms=3)
                if chain.is_zero():
                    continue
                dec = decompose_tensor2(chain)
                assert dec.vanishing_part is not None
                assert dec.vanishing_part + dec.null_not_van_part == chain
                produced += 1
    assert produced >= 50


def test_normal_component_splits_under_differential(m321):
    # the differential of a prolonged-normal arity-1 chain decomposes with
    # zero remainder into the two arity-2 complement blocks
    rng = random.Random(603)
    checked = 0
    for K in (2, 3, 4):
        for c in (0, 1):
            for _ in range(20):
                psi = rand_tagged_chain(rng, m321, 1, K, c, "total", n_terms=2)
                psi = decompose_sym(psi)[1]
                if psi.is_zero():
                    continue
                assert chain_membership(psi, SubspaceTag.TOTAL_NOT_WOBS)
                image = differential_d(psi)
                dec = decompose_tensor2(image)
                nnv = image - dec.total_not_wobs_part
                assert chain_membership(nnv, SubspaceTag.NULL_NOT_VAN) or nnv.is_zero()
                assert dec.total_not_wobs_part + nnv == image
                checked += 1
    assert checked >= 60


def test_reduce_multivector_examples(m321):
    red = m321.reduced_model()
    assert reduce_multivector(MultiVector.wedge_of_frames(m321, (1, 3))) == \
        MultiVector.zero(red, 2)
    assert reduce_multivector(MultiVector.wedge_of_frames(m321, (1, 2))) == \
        MultiVector.zero(red, 2)
    m431 = FlatModel(4, 3, 1)
    assert reduce_multivector(MultiVector.wedge_of_frames(m431, (2, 3))) == \
        MultiVector.wedge_of_frames(m431.reduced_model(), (1, 2))


def test_reduce_multivector_drops_restricted_coefficients():
    m431 = FlatModel(4, 3, 1)
    x4 = Poly.monomial((0, 0, 0, 1))
    x = MultiVector.wedge_of_frames(m431, (2, 3), x4)
    assert reduce_multivector(x).is_zero()
    x2 = Poly.monomial((0, 1, 0, 0))
    y = MultiVector.wedge_of_frames(m431, (2, 3), x2)
    assert reduce_multivector(y) == MultiVector.wedge_of_frames(
        m431.reduced_model(), (1, 2), Poly.monomial((1, 0)))


def test_reduce_multivector_requires_observable(m321):
    with pytest.raises(NotConstraintError):
        reduce_multivector(MultiVector.wedge_of_frames(m321, (2, 3)))
