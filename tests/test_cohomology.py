"""Slice bases, matrices of the differential, cohomology dimensions and the
constructive degree-2 decomposition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (CocycleClass, FlatModel, MultiVector, Poly, Slice,
                     SubspaceTag, SymbolChain, bivector_slice_basis,
                     class_maps, classified_hh2_dimension, decompose_2cocycle,
                     differential_d, find_constraint_potential, find_potential,
                     hh0_dimension, hh_dimension, hkr, matrix_of_D,
                     normal_class_basis, slice_basis)
from conhoch import cohomology, slicecount
from conhoch.slicecount import normal_class_monomials
from conhoch.decompose import slice_monomials
from conhoch.model import _window
from conhoch.errors import (InvariantError, NotClosedError, NotConstraintError,
                            PreconditionError, SolveFailureError)
from conhoch.dense import RationalMatrix
from conhoch.linalg import sparse_rank

from conftest import all_models, rand_fraction, rand_tagged_chain, var
from reference import function_slice_basis, slot_tuples_by_pools, tagged_slots_by_monomial


# ---------------------------------------------------------------------------
# slices and matrices
# ---------------------------------------------------------------------------


def test_slot_tuples_keep_their_order():
    # sorted by the tuple of word lengths, then lexicographically: the
    # solvers keep the earliest independent columns in this order, so it
    # decides which potential find-potential and decompose-cocycle print
    assert cohomology._all_slot_tuples(FlatModel(3, 2, 1), 2, 3) == (
        ((1,), (1, 1)), ((1,), (1, 2)), ((1,), (1, 3)), ((1,), (2, 2)), ((1,), (2, 3)),
        ((1,), (3, 3)), ((2,), (1, 1)), ((2,), (1, 2)), ((2,), (1, 3)), ((2,), (2, 2)),
        ((2,), (2, 3)), ((2,), (3, 3)), ((3,), (1, 1)), ((3,), (1, 2)), ((3,), (1, 3)),
        ((3,), (2, 2)), ((3,), (2, 3)), ((3,), (3, 3)), ((1, 1), (1,)), ((1, 1), (2,)),
        ((1, 1), (3,)), ((1, 2), (1,)), ((1, 2), (2,)), ((1, 2), (3,)), ((1, 3), (1,)),
        ((1, 3), (2,)), ((1, 3), (3,)), ((2, 2), (1,)), ((2, 2), (2,)), ((2, 2), (3,)),
        ((2, 3), (1,)), ((2, 3), (2,)), ((2, 3), (3,)), ((3, 3), (1,)), ((3, 3), (2,)),
        ((3, 3), (3,)))


def test_slice_basis_examples(m321):
    basis = slice_basis(Slice(m321, 1, 1, 0, "wobs"))
    assert [list(b.terms) for b in basis] == [[((1,),)], [((2,),)]]

    # the degree-(1,1) observable tensor slice: four observable-pair words
    # plus the two mixed words with a distribution slot
    basis2 = slice_basis(Slice(m321, 2, 2, 0, "wobs"))
    words = {list(b.terms)[0] for b in basis2}
    assert words == {((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,)),
                     ((1,), (3,)), ((3,), (1,))}
    assert len(basis2) == 6


def test_null_slice_contained_in_wobs_slice(m321):
    for arity in (1, 2):
        for K in (1, 2, 3):
            for c in (0, 1):
                null = set(slice_monomials(Slice(m321, arity, K, c, "null")))
                wobs = set(slice_monomials(Slice(m321, arity, K, c, "wobs")))
                assert null <= wobs


def test_matrix_of_d_zero_on_degree_one(m321):
    m = matrix_of_D(Slice(m321, 1, 1, 0, "wobs"))
    assert sparse_rank(m) == 0


@pytest.mark.parametrize("K", [2, 3])
def test_matrix_of_d_injective_on_higher_degree(m321, K):
    dom = Slice(m321, 1, K, 0, "wobs")
    m = matrix_of_D(dom)
    assert sparse_rank(m) == len(m) == len(slice_basis(dom))


def test_matrix_of_d_two_shuffle_entries(m321):
    dom = Slice(m321, 1, 2, 1, "wobs")
    cod = Slice(m321, 2, 2, 1, "wobs")
    monos = slice_monomials(dom)
    j = monos.index(((0, 0, 1), ((1, 3),)))
    column = matrix_of_D(dom)[j]
    rows = slice_monomials(cod)
    assert {rows[i]: v for i, v in column.items()} == {
        ((0, 0, 1), ((1,), (3,))): -1, ((0, 0, 1), ((3,), (1,))): -1}


def test_matrix_of_d_escape_is_typed(m321, monkeypatch):
    # an image of symmetric degree 3 lies outside the K = 2 codomain; the
    # subcomplex check must be a typed error that python -O keeps
    monkeypatch.setattr(cohomology, "_image_columns",
                        lambda model, monomials: [{((1,), (1, 1)): 1} for _ in monomials])
    with pytest.raises(InvariantError, match="matrix_of_D: differential left"):
        matrix_of_D(Slice(m321, 1, 2, 0, "wobs"))


def test_tagged_slices_form_subcomplex():
    # the differential of every tagged basis element expands exactly in the
    # tagged codomain slice, across the whole small-model grid
    for model in all_models(4):
        for tag in ("wobs", "null"):
            for K in (1, 2, 3):
                for c in (0, 1, 2):
                    for arity in (1, 2):
                        matrix_of_D(Slice(model, arity, K, c, tag))  # raises on any escape


def _windows():
    """A tagged window of a small model: (model, arity, K, tag, d, t) with
    unit counts that some coefficient monomial of the model carries."""
    return st.tuples(
        st.sampled_from(all_models(4)), st.integers(1, 2), st.integers(1, 4),
        st.sampled_from(("wobs", "null")), st.integers(0, 3), st.integers(0, 3),
    ).filter(lambda w: (w[4] == 0 or w[0].n_null > 0)
             and (w[5] == 0 or w[0].n_wobs < w[0].n_total))


@settings(max_examples=200, deadline=None)
@given(_windows())
def test_tagged_window_equals_the_monomial_filter(window):
    # deciding membership per word in the window kind of (tag, d, t) gives
    # exactly the tuples, in the same order, that monomial_member keeps
    # with a witness coefficient of those unit counts
    model, arity, K, tag, d, t = window
    kind = _window(tag, d, t)
    assert (cohomology._tagged_slots_for_units(model, arity, K, kind)
            == tagged_slots_by_monomial(*window))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(all_models(5)), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from(("total", "null", "wobs")))
def test_content_blocks_agree_with_the_listing_by_word_pools(model, arity, K, kind):
    # the words of a window come one letter-content block at a time; the
    # whole listing equals the product of word pools in the same order,
    # each block is the subsequence of the tagged window with its content
    # (so the solvers keep the same earliest columns), and one ranked
    # block per pattern gives the size and rank of every block together
    assert cohomology._all_slot_tuples(model, arity, K) == slot_tuples_by_pools(model, arity, K)
    window = cohomology._tagged_slots_for_units(model, arity, K, kind)
    by_content = {}
    for slots in window:
        by_content.setdefault(cohomology._letter_content(slots), []).append(slots)
    rank = 0
    for content in itertools.combinations_with_replacement(range(1, model.n_total + 1), K):
        block = cohomology._content_words(model, arity, content, kind)
        assert block == tuple(by_content.get(content, ()))
        rank += sparse_rank(cohomology._image_columns(model, block))
    assert slicecount._window_dims(model, arity, K, kind) == (len(window), rank)


def test_untagged_window_gives_the_hkr_count():
    # Hochschild, Kostant and Rosenberg (1962): the degree-2 Hochschild
    # cohomology of a polynomial algebra is its bivectors, so on the
    # untagged window (every coefficient monomial alike) the kernel
    # leaves C(n, 2) classes at K = 2 and none at K >= 3
    for model in all_models(5):
        for K in range(2, 6):
            dim2, rank2 = slicecount._window_dims(model, 2, K, "total")
            rank1 = slicecount._window_dims(model, 1, K, "total")[1]
            expected = math.comb(model.n_total, 2) if K == 2 else 0
            assert dim2 - rank2 - rank1 == expected, (model, K)


def test_slice_reports_rank_each_window_kind_once():
    # (7,4,2) with K = 2..5 and c <= 2 meets every window kind (total,
    # null, wobs) at both arities: 2 * 4 * 3 window sizes and ranks,
    # whatever the unit counts of the coefficients.  Neither the slice
    # count nor a solve lists a whole window.
    listings = (cohomology._all_slot_tuples, cohomology._tagged_slots_for_units)
    for cached in listings + (cohomology._content_words, slicecount._patterns,
                              slicecount._window_dims):
        cached.cache_clear()
    model = FlatModel(7, 4, 2)
    for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
        for K in range(2, 6):
            for c in range(3):
                slicecount.hh2_slice_report(model, tag, K, c)
    assert slicecount._window_dims.cache_info().misses == 24
    assert [f.cache_info().misses for f in listings] == [0, 0]
    phi = differential_d(SymbolChain.from_term(model, [(1, 3, 4)]))
    assert find_constraint_potential(phi) is not None
    assert [f.cache_info().misses for f in listings] == [0, 0]


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_hh2_spot_values(m321):
    assert hh_dimension(m321, SubspaceTag.WOBS, 2, 2, 0) == 3
    assert hh_dimension(m321, SubspaceTag.WOBS, 2, 3, 0) == 1
    assert hh_dimension(m321, SubspaceTag.WOBS, 1, 1, 0) == 2


def test_hh2_matches_classification_on_grid():
    for dims in ((3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)):
        model = FlatModel(*dims)
        for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
            for K in (2, 3):
                for c in (0, 1, 2):
                    assert hh_dimension(model, tag, 2, K, c) == \
                        classified_hh2_dimension(model, tag, K, c), \
                        (dims, tag, K, c)


def test_hh2_matches_classification_on_five_dimensional_model():
    model = FlatModel(5, 3, 2)
    for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
        for K in (2, 3):
            for c in (0, 1):
                assert hh_dimension(model, tag, 2, K, c) == \
                    classified_hh2_dimension(model, tag, K, c), (tag, K, c)


def test_hh2_matches_classification_on_degenerate_models():
    # empty blocks: no distribution, no transverse-in-C directions, no
    # normal directions, and combinations
    for dims in ((3, 3, 1), (3, 2, 0), (3, 3, 3), (2, 2, 1), (3, 0, 0),
                 (3, 3, 0), (2, 0, 0)):
        model = FlatModel(*dims)
        for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
            for K in (2, 3):
                for c in (0, 1):
                    assert hh_dimension(model, tag, 2, K, c) == \
                        classified_hh2_dimension(model, tag, K, c), \
                        (dims, tag, K, c)


def _naive_hh2(model, tag, K, c):
    """Independent slice cohomology: one dense matrix per slice over raw
    monomial coordinates, no per-coefficient blocking."""
    def d_matrix(basis):
        index = {}
        columns = []
        for chain in basis:
            image = differential_d(chain)
            col = {}
            for gamma, slots, q in image.monomials():
                key = (gamma, slots)
                index.setdefault(key, len(index))
                col[key] = col.get(key, Fraction(0)) + q
            columns.append(col)
        rows = len(index)
        dense = [[Fraction(0)] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for key, q in col.items():
                dense[index[key]][j] = q
        return RationalMatrix(dense, cols=len(columns))

    basis1 = slice_basis(Slice(model, 1, K, c, tag))
    basis2 = slice_basis(Slice(model, 2, K, c, tag))
    rank1 = d_matrix(basis1).rank() if basis1 else 0
    m2 = d_matrix(basis2) if basis2 else None
    kernel2 = len(basis2) - (m2.rank() if m2 is not None else 0)
    return kernel2 - rank1


def test_blocked_dimensions_match_naive_full_slice(m321):
    # (3,3,1) has no normal and (3,2,0) no distribution directions
    m431 = FlatModel(4, 3, 1)
    for model in (m321, m431, FlatModel(3, 3, 1), FlatModel(3, 2, 0)):
        for tag in ("wobs", "null"):
            for K in (2, 3):
                for c in (0, 1):
                    subtag = SubspaceTag(tag)
                    assert hh_dimension(model, subtag, 2, K, c) == \
                        _naive_hh2(model, tag, K, c), (model, tag, K, c)


def test_classification_examples(m321):
    assert classified_hh2_dimension(m321, SubspaceTag.WOBS, 2, 0) == 3
    # two null bivectors (each carries a distribution factor) plus one
    # normal word; the slice computation independently confirms 3
    assert classified_hh2_dimension(m321, SubspaceTag.NULL, 2, 0) == 3
    assert hh_dimension(m321, SubspaceTag.NULL, 2, 2, 0) == 3
    m432 = FlatModel(4, 3, 2)
    assert len(normal_class_monomials(m432, 3, 0)) == 3
    assert {w for _, w in normal_class_monomials(m432, 3, 0)} == \
        {(1, 1, 4), (1, 2, 4), (2, 2, 4)}


def test_hh1_identifies_observable_fields(m321):
    for c in (0, 1, 2):
        fields = slice_basis(Slice(m321, 1, 1, c, "wobs"))
        assert hh_dimension(m321, SubspaceTag.WOBS, 1, 1, c) == len(fields)
        for K in (2, 3):
            assert hh_dimension(m321, SubspaceTag.WOBS, 1, K, c) == 0


def test_hh0_reports_function_class(m321):
    from conhoch import FunctionClass

    for c in (0, 1, 2, 3):
        assert hh0_dimension(m321, SubspaceTag.WOBS, c) == \
            len(function_slice_basis(m321, FunctionClass.WOBS, c))
        assert hh0_dimension(m321, SubspaceTag.NULL, c) == \
            len(function_slice_basis(m321, FunctionClass.NULL, c))


def test_hh0_counts_the_function_slice_basis():
    # degree 0 counts the monomials of the class without building a Poly;
    # the count is the size of the monomial basis of the function class
    from conhoch import FunctionClass

    for model in all_models(5):
        for c in range(4):
            for tag, cls in ((SubspaceTag.WOBS, FunctionClass.WOBS),
                             (SubspaceTag.NULL, FunctionClass.NULL)):
                assert hh0_dimension(model, tag, c) == \
                    len(function_slice_basis(model, cls, c)), (model, tag, c)


def test_classification_requires_degree_two(m321):
    with pytest.raises(PreconditionError):
        classified_hh2_dimension(m321, SubspaceTag.WOBS, 1, 0)


# ---------------------------------------------------------------------------
# potentials and the constructive decomposition
# ---------------------------------------------------------------------------


def _counterexample_cocycle(model):
    return (SymbolChain.from_term(model, [(1,), (3,)], -1)
            + SymbolChain.from_term(model, [(3,), (1,)], -1))


def test_find_constraint_potential_examples(m321):
    phi = _counterexample_cocycle(m321)
    assert find_constraint_potential(phi) is None

    exact = differential_d(SymbolChain.from_term(m321, [(1, 2)]))
    psi = find_constraint_potential(exact)
    assert psi is not None and differential_d(psi) == exact

    assert find_constraint_potential(hkr(MultiVector.wedge_of_frames(m321, (1, 3)))) is None


def test_plain_potential_exists_where_constraint_fails(m321):
    phi = _counterexample_cocycle(m321)
    psi = find_potential(phi)
    assert psi is not None and differential_d(psi) == phi
    assert psi == SymbolChain.from_term(m321, [(1, 3)])


def test_potential_of_an_arity_one_chain_is_a_precondition_error(m321):
    # a closed arity-1 chain has no arity-0 potential to solve for
    chain = SymbolChain.from_term(m321, [(1,)])
    assert differential_d(chain).is_zero()
    with pytest.raises(PreconditionError):
        find_potential(chain)


def test_blockwise_potential_matches_one_dense_solve(m321):
    # arity-2 domains: D has a kernel there (words of length one are
    # primitive), so the solution depends on which columns are basic; the
    # letter-content blocks must pick the same ones as one dense solve
    # over the whole (K, coefficient) block, free variables 0
    rng = random.Random(710)
    for K, gamma in ((3, (0, 0, 1)), (3, (1, 0, 0)), (4, (0, 0, 0))):
        domain = [s for g, s in slice_monomials(Slice(m321, 2, K, sum(gamma)))
                  if g == gamma]
        images = [differential_d(SymbolChain.from_term(m321, s, Poly.monomial(gamma)))
                  for s in domain]
        rows = {}
        for image in images:
            for key in image.terms:
                rows.setdefault(key, len(rows))
        dense = RationalMatrix(
            [[image.coefficient(key).terms.get(gamma, Fraction(0)) for image in images]
             for key in rows], cols=len(domain))
        assert dense.rank() < len(domain)
        for _ in range(3):
            psi = SymbolChain(m321, 2, [(s, Poly.monomial(gamma, rand_fraction(rng)))
                                        for s in rng.sample(domain, 4)])
            phi = differential_d(psi)
            x = dense.solve([phi.coefficient(key).terms.get(gamma, Fraction(0))
                             for key in rows])
            expected = SymbolChain(m321, 2, [(s, Poly.monomial(gamma, q))
                                             for s, q in zip(domain, x)])
            assert find_potential(phi) == expected, (K, gamma, psi)


def test_hkr_classes_have_no_constraint_potential():
    for dims in ((3, 2, 1), (4, 3, 1), (4, 3, 2)):
        model = FlatModel(*dims)
        for c in (0, 1):
            for x in bivector_slice_basis(model, SubspaceTag.WOBS, c):
                assert find_constraint_potential(hkr(x)) is None, (dims, c, x)


def test_decompose_examples(m321):
    dec = decompose_2cocycle(_counterexample_cocycle(m321))
    assert dec.cocycle_class.bivector.is_zero()
    assert dec.cocycle_class.normal_part == SymbolChain.from_term(m321, [(1, 3)])
    assert dec.potential.is_zero()

    x = MultiVector.wedge_of_frames(m321, (1, 2))
    dec = decompose_2cocycle(hkr(x))
    assert dec.cocycle_class.bivector == x
    assert dec.cocycle_class.normal_part.is_zero()
    assert dec.potential.is_zero()

    pot = SymbolChain.from_term(m321, [(1, 1)], var(m321, 2))
    dec = decompose_2cocycle(differential_d(pot))
    assert dec.cocycle_class.bivector.is_zero()
    assert dec.cocycle_class.normal_part.is_zero()
    assert dec.potential == pot


def test_decompose_rejects_bad_input(m321):
    not_closed = SymbolChain.from_term(m321, [(1, 1), (1,)])
    assert not differential_d(not_closed).is_zero()
    with pytest.raises(NotClosedError):
        decompose_2cocycle(not_closed)
    not_constraint = SymbolChain.from_term(m321, [(2,), (3,)])
    with pytest.raises(NotConstraintError):
        decompose_2cocycle(not_constraint)


def test_decompose_rebuild_failure_is_typed(m321, monkeypatch):
    # a wrong potential that passes the membership checks is still caught,
    # by a check that python -O keeps
    real = cohomology._solve_d
    monkeypatch.setattr(cohomology, "_solve_d", lambda rhs, tag: real(rhs, tag).scale(2))
    pot = SymbolChain.from_term(m321, [(1, 1)], var(m321, 2))
    with pytest.raises(SolveFailureError, match="rebuild"):
        decompose_2cocycle(differential_d(pot))


def test_decompose_round_trip_randomized(m321):
    rng = random.Random(700)
    for _ in range(60):
        K = rng.choice((2, 3))
        c = rng.choice((0, 1))
        x = MultiVector.zero(m321, 2)
        if K == 2:
            # bivector chains carry symmetric degree two, so they only
            # contribute in the K = 2 windows
            for mv in bivector_slice_basis(m321, SubspaceTag.WOBS, c):
                if rng.random() < 0.5:
                    x = x + mv.scale(rand_fraction(rng))
        psi = SymbolChain.zero(m321, 1)
        for b in normal_class_basis(m321, K, c):
            if rng.random() < 0.6:
                psi = psi + b.scale(rand_fraction(rng))
        pot = rand_tagged_chain(rng, m321, 1, K, c, "wobs", n_terms=2)
        pot = pot - pot.sym_degree_part(1)  # kernel of D carries no data
        phi = hkr(x) + differential_d(psi) + differential_d(pot)
        dec = decompose_2cocycle(phi)
        assert dec.cocycle_class.bivector == x
        assert dec.cocycle_class.normal_part == psi
        assert dec.potential == pot


def _combination(data, basis, zero):
    """A random combination of at most three basis elements."""
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    total = zero
    if basis:
        for i, q in data.draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), scalar),
                                       max_size=3)):
            total = total + basis[i].scale(q)
    return total


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([FlatModel(*dims) for dims in
                        ((3, 2, 1), (4, 3, 1), (4, 3, 2), (3, 3, 1), (3, 2, 0))]),
       st.sampled_from((2, 3)), st.sampled_from((0, 1)), st.data())
def test_decompose_rebuild_is_the_identity(model, K, c, data):
    # a closed observable 2-chain built from the classification (a tagged
    # bivector, a normal-word class and D of an observable potential)
    # decomposes into exactly those parts; bivector chains have two
    # degree-one slots, so they only occur at K = 2
    x = MultiVector.zero(model, 2)
    if K == 2:
        x = _combination(data, bivector_slice_basis(model, SubspaceTag.WOBS, c), x)
    psi = _combination(data, normal_class_basis(model, K, c), SymbolChain.zero(model, 1))
    pot = _combination(data, slice_basis(Slice(model, 1, K, c, "wobs")),
                       SymbolChain.zero(model, 1))
    dec = decompose_2cocycle(hkr(x) + differential_d(psi) + differential_d(pot))
    assert dec.cocycle_class.bivector == x
    assert dec.cocycle_class.normal_part == psi
    assert dec.potential == pot


def test_representatives_independent_mod_observable_boundaries(m321):
    # stacking class representatives onto observable coboundaries must
    # increase the rank by the full count of representatives
    for K, c in ((2, 0), (2, 1), (3, 0), (3, 1)):
        reps = []
        if K == 2:
            reps.extend(hkr(x) for x in bivector_slice_basis(m321, SubspaceTag.WOBS, c))
        reps.extend(differential_d(p) for p in normal_class_basis(m321, K, c))
        boundaries = [differential_d(b)
                      for b in slice_basis(Slice(m321, 1, K, c, "wobs"))]
        boundaries = [b for b in boundaries if not b.is_zero()]

        coords = {}
        def to_vec(chain):
            vec = {}
            for gamma, slots, q in chain.monomials():
                key = (gamma, slots)
                coords.setdefault(key, len(coords))
                vec[key] = vec.get(key, Fraction(0)) + q
            return vec

        vecs = [to_vec(ch) for ch in boundaries + reps]
        dense = [[v.get(key, Fraction(0)) for v in vecs]
                 for key in sorted(coords, key=lambda k: str(k))]
        full = RationalMatrix(dense, cols=len(vecs))
        boundary_only = RationalMatrix(
            [row[: len(boundaries)] for row in dense], cols=len(boundaries))
        assert full.rank() == boundary_only.rank() + len(reps)


def test_class_maps(m321):
    x = MultiVector.wedge_of_frames(m321, (1, 3))
    psi = SymbolChain.from_term(m321, [(1, 3)])
    ambient, reduced = class_maps(CocycleClass(x, psi))
    assert ambient == x and reduced.is_zero()

    zero_cls = CocycleClass(MultiVector.zero(m321, 2), psi)
    ambient, reduced = class_maps(zero_cls)
    assert ambient.is_zero() and reduced.is_zero()

    m431 = FlatModel(4, 3, 1)
    x = MultiVector.wedge_of_frames(m431, (2, 3))
    ambient, reduced = class_maps(CocycleClass(x, SymbolChain.zero(m431, 1)))
    assert ambient == x
    assert reduced == MultiVector.wedge_of_frames(m431.reduced_model(), (1, 2))


def test_cocycle_class_validation(m321):
    with pytest.raises(NotConstraintError):
        CocycleClass(MultiVector.wedge_of_frames(m321, (2, 3)),
                     SymbolChain.zero(m321, 1))
    with pytest.raises(ValueError):
        CocycleClass(MultiVector.zero(m321, 2),
                     SymbolChain.from_term(m321, [(2, 3)]))
    with pytest.raises(ValueError):
        CocycleClass(MultiVector.zero(m321, 2),
                     SymbolChain.from_term(m321, [(1, 3)], var(m321, 3)))
