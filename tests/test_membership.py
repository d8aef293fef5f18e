"""Constraint membership: component conditions, per-monomial tensor classes,
the hatted splitting blocks, and their independent oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (FlatModel, FunctionClass, MultiDiffOp, MultiVector, Poly,
                     SubspaceTag, SymbolChain, VectorField, bivector_slice_basis, bracket,
                     chain_membership, classified_hh2_dimension, hh0_dimension,
                     hh_dimension, monomial_member, mv_membership, op_membership,
                     vf_membership)
from conhoch.errors import UnsupportedTagError
from conhoch.words import mv_members

from conftest import all_models, frame_field, monomial_field, monomials_up_to, rand_poly, var
from reference import (classify_function_by_definition, op_membership_functional,
                       vf_membership_by_definition)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def test_vf_examples(m321):
    d1 = monomial_field(m321, 1, (0, 0, 0))
    assert vf_membership(d1, SubspaceTag.NULL)
    assert vf_membership(d1, SubspaceTag.WOBS)

    x1d2 = frame_field(m321, 2, var(m321, 1))
    assert not vf_membership(x1d2, SubspaceTag.WOBS)

    x3d3 = frame_field(m321, 3, var(m321, 3))
    assert vf_membership(x3d3, SubspaceTag.WOBS)
    assert vf_membership(x3d3, SubspaceTag.NULL)


def _wobs_field_oracle(model: FlatModel, x: VectorField,
                       rng: random.Random, samples: int = 12) -> bool:
    """Definitional route: tangency on C plus closedness of the bracket
    with random distribution sections f * d_a."""
    for i in model.tcperp_indices:
        if not model.restrict_to_c(x.components[i - 1]).is_zero():
            return False
    for _ in range(samples):
        if model.n_null == 0:
            break
        a = rng.choice(list(model.d_indices))
        y = frame_field(model, a, rand_poly(rng, model.n_total, 2))
        lie = bracket(x, y)
        for i in range(model.n_null + 1, model.n_total + 1):
            if not model.restrict_to_c(lie.components[i - 1]).is_zero():
                return False
    return True


def test_vf_wobs_against_bracket_oracle():
    rng = random.Random(300)
    for model in all_models(4):
        for _ in range(12):
            comps = [rand_poly(rng, model.n_total, 2, 1) for _ in range(model.n_total)]
            x = VectorField(model, comps)
            assert vf_membership(x, SubspaceTag.WOBS) == \
                _wobs_field_oracle(model, x, rng), (model, x)


_MODELS = all_models(5)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_rule_classifiers_equal_the_definitions(data):
    # classify_function and vf_membership apply the monomial rule of
    # conhoch.model; the definitions restrict to C and differentiate along
    # the distribution.  One polynomial and one vector field per model,
    # on every model with n_total <= 5, with terms of degree <= 3
    for model in _MODELS:
        n = model.n_total
        monomial = st.tuples(st.sampled_from(monomials_up_to(n, 3)), st.integers(-2, 2))
        polys = st.lists(monomial, max_size=3).map(lambda terms: Poly(n, terms))
        f = data.draw(polys)
        assert model.classify_function(f) is classify_function_by_definition(model, f), \
            (model, f)
        x = VectorField(model, data.draw(st.lists(polys, min_size=n, max_size=n)))
        for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
            assert vf_membership(x, tag) == vf_membership_by_definition(x, tag), \
                (model, x, tag)


def test_vf_null_implies_wobs():
    rng = random.Random(301)
    for model in all_models(4):
        for _ in range(15):
            comps = [rand_poly(rng, model.n_total, 2, 1) for _ in range(model.n_total)]
            x = VectorField(model, comps)
            if vf_membership(x, SubspaceTag.NULL):
                assert vf_membership(x, SubspaceTag.WOBS)


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------


def test_mv_examples(m321):
    d1d3 = MultiVector.wedge_of_frames(m321, (1, 3))
    assert mv_membership(d1d3, SubspaceTag.WOBS)
    assert mv_membership(d1d3, SubspaceTag.NULL)
    d2d3 = MultiVector.wedge_of_frames(m321, (2, 3))
    assert not mv_membership(d2d3, SubspaceTag.WOBS)
    d1d2 = MultiVector.wedge_of_frames(m321, (1, 2))
    assert mv_membership(d1d2, SubspaceTag.WOBS)
    # a wedge with a distribution factor lies in the null class, so every
    # observable bivector here reduces to zero (the reduced space is a line)
    assert mv_membership(d1d2, SubspaceTag.NULL)


def _mv_spanning_oracle(model: FlatModel, gamma, pair, tag: SubspaceTag,
                        max_degree: int = 3) -> bool:
    """Row-reduction-free spanning oracle: enumerate wedges of monomial
    fields (observable pairs, and arbitrary-with-null pairs) and test the
    monomial for support membership."""
    wobs_fields = []
    null_fields = []
    all_fields = []
    for i in range(1, model.n_total + 1):
        for exp in monomials_up_to(model.n_total, max_degree):
            f = monomial_field(model, i, exp)
            all_fields.append((i, exp))
            if vf_membership_by_definition(f, SubspaceTag.WOBS):
                wobs_fields.append((i, exp))
            if vf_membership_by_definition(f, SubspaceTag.NULL):
                null_fields.append((i, exp))

    def spans(pairs):
        for (i, ea), (j, eb) in pairs:
            if i == j:
                continue
            if tuple(sorted((i, j))) != pair:
                continue
            if tuple(a + b for a, b in zip(ea, eb)) == gamma:
                return True
        return False

    null_span = spans(itertools.product(all_fields, null_fields))
    if tag is SubspaceTag.NULL:
        return null_span
    return null_span or spans(itertools.product(wobs_fields, wobs_fields))


def test_mv_monomials_against_spanning_oracle():
    for model in (FlatModel(3, 2, 1), FlatModel(3, 3, 2), FlatModel(4, 2, 1)):
        for gamma in monomials_up_to(model.n_total, 2):
            for pair in itertools.combinations(range(1, model.n_total + 1), 2):
                for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
                    assert bool(mv_members(model, tag, [(gamma, pair)])) == \
                        _mv_spanning_oracle(model, gamma, pair, tag), \
                        (model, gamma, pair, tag)


# ---------------------------------------------------------------------------
# tensor chains: examples, consistency, functional oracle
# ---------------------------------------------------------------------------


def test_chain_examples(m321):
    sym = (SymbolChain.from_term(m321, [(1,), (3,)])
           + SymbolChain.from_term(m321, [(3,), (1,)]))
    assert chain_membership(sym, SubspaceTag.WOBS)

    assert chain_membership(SymbolChain.from_term(m321, [(1, 3)]),
                            SubspaceTag.TOTAL_NOT_WOBS)
    assert not chain_membership(SymbolChain.from_term(m321, [(1, 3)]),
                                SubspaceTag.WOBS)

    assert chain_membership(SymbolChain.from_term(m321, [(2,)]),
                            SubspaceTag.WOBS_NOT_NULL)


def test_chain_null_implies_wobs(m321):
    rng = random.Random(302)
    from conftest import rand_chain
    for _ in range(200):
        chain = rand_chain(rng, m321, rng.randint(1, 2), 3, 2)
        if chain_membership(chain, SubspaceTag.NULL):
            assert chain_membership(chain, SubspaceTag.WOBS)


def test_chain_membership_matches_vector_fields(m321):
    # arity-1 symmetric-degree-1 chains are vector fields, whose classes
    # the definitions decide on the components
    for i in range(1, 4):
        for exp in monomials_up_to(3, 2):
            chain = SymbolChain.from_term(m321, [(i,)], Poly.monomial(exp))
            field = monomial_field(m321, i, exp)
            for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
                assert chain_membership(chain, tag) == vf_membership_by_definition(field, tag)


def test_chain_membership_matches_functional_oracle():
    # the defining operator-level conditions, evaluated on class bases,
    # agree with the per-monomial combinatorial test
    for model in (FlatModel(3, 2, 1), FlatModel(3, 3, 1)):
        words1 = [(i,) for i in range(1, model.n_total + 1)]
        words2 = [tuple(sorted(p)) for p in
                  itertools.combinations_with_replacement(range(1, model.n_total + 1), 2)]
        gammas = monomials_up_to(model.n_total, 1)
        cases = []
        for g in gammas:
            cases.extend((g, (w,)) for w in words1 + words2)
            cases.extend((g, (w1, w2)) for w1 in words1 for w2 in words1)
        for gamma, slots in cases:
            op = MultiDiffOp(SymbolChain.from_term(model, slots, Poly.monomial(gamma)))
            for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
                assert monomial_member(model, gamma, slots, tag) == \
                    op_membership_functional(op, tag, max_degree=3), \
                    (model, gamma, slots, tag)


def test_multi_term_chains_symbol_vs_functional():
    # the functional conditions are decided monomial by monomial even for
    # sums: cross-check whole random operators against the sampled oracle
    rng = random.Random(303)
    from conftest import rand_chain

    for dims in ((3, 2, 1), (3, 3, 1), (2, 1, 0)):
        model = FlatModel(*dims)
        for _ in range(25):
            chain = rand_chain(rng, model, rng.randint(1, 2), 3, 2, n_terms=3)
            op = MultiDiffOp(chain)
            for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
                assert chain_membership(chain, tag) == \
                    op_membership_functional(op, tag, max_degree=3), \
                    (dims, chain, tag)


def test_arity_three_symbol_vs_functional(m321):
    rng = random.Random(304)
    from conftest import rand_chain

    for _ in range(8):
        chain = rand_chain(rng, m321, 3, 4, 1, n_terms=2)
        op = MultiDiffOp(chain)
        for tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
            assert chain_membership(chain, tag) == \
                op_membership_functional(op, tag, max_degree=3), (chain, tag)


def test_mixed_distribution_slot_forces_null(m321):
    # a slot word with a distribution letter and no normal letter sends
    # every observable argument into the null class
    op = MultiDiffOp(SymbolChain.from_term(m321, [(1, 2)]))
    assert chain_membership(op.symbol, SubspaceTag.NULL)
    for exp in monomials_up_to(3, 4):
        f = Poly.monomial(exp)
        if FunctionClass.WOBS.contains(classify_function_by_definition(m321, f)):
            assert classify_function_by_definition(m321, op.apply([f])) is FunctionClass.NULL


def test_vanishing_coefficient_forces_null(m321):
    # x3 * d3 v d3 is constraint (even null) although no factorisation into
    # observable frame fields exists: the coefficient already vanishes on C
    chain = SymbolChain.from_term(m321, [(3, 3)], var(m321, 3))
    assert chain_membership(chain, SubspaceTag.NULL)
    assert chain_membership(chain, SubspaceTag.WOBS)
    assert op_membership_functional(MultiDiffOp(chain), SubspaceTag.NULL)

    # the literal two-factor covering rule would demand a normal variable
    # per normal letter and wrongly reject this monomial
    gamma, word = (0, 0, 1), (3, 3)
    normal_letters = sum(1 for i in word if i > m321.n_wobs)
    normal_units = sum(gamma[m321.n_wobs:])
    assert normal_units < normal_letters


# ---------------------------------------------------------------------------
# hatted tags
# ---------------------------------------------------------------------------


def test_hatted_arity_one(m321):
    cases = {
        (1, 2): SubspaceTag.NULL_NOT_VAN,
        (2, 2): SubspaceTag.WOBS_NOT_NULL,
        (1, 3): SubspaceTag.TOTAL_NOT_WOBS,
        (3, 3): SubspaceTag.TOTAL_NOT_WOBS,
    }
    for word, tag in cases.items():
        chain = SymbolChain.from_term(m321, [word])
        for other in (SubspaceTag.NULL_NOT_VAN, SubspaceTag.WOBS_NOT_NULL,
                      SubspaceTag.TOTAL_NOT_WOBS):
            assert chain_membership(chain, other) == (other is tag), (word, other)
    assert chain_membership(SymbolChain.from_term(m321, [(2, 2)]),
                            SubspaceTag.TOTAL_NOT_NULL)
    assert chain_membership(SymbolChain.from_term(m321, [(3,)]),
                            SubspaceTag.TOTAL_NOT_NULL)
    assert not chain_membership(SymbolChain.from_term(m321, [(1, 2)]),
                                SubspaceTag.TOTAL_NOT_NULL)
    # sections over C only: a normal variable in the coefficient disqualifies
    assert not chain_membership(SymbolChain.from_term(m321, [(1, 3)], var(m321, 3)),
                                SubspaceTag.TOTAL_NOT_WOBS)
    # coefficients on C may use distribution variables
    assert chain_membership(SymbolChain.from_term(m321, [(1, 3)], var(m321, 1)),
                            SubspaceTag.TOTAL_NOT_WOBS)


def test_hatted_arity_two(m321):
    d1_d3 = SymbolChain.from_term(m321, [(1,), (3,)])
    assert chain_membership(d1_d3, SubspaceTag.NULL_NOT_VAN)
    d3_d2 = SymbolChain.from_term(m321, [(3,), (2,)])
    assert chain_membership(d3_d2, SubspaceTag.TOTAL_NOT_WOBS)
    assert not chain_membership(d3_d2, SubspaceTag.NULL_NOT_VAN)
    d2_d2 = SymbolChain.from_term(m321, [(2,), (2,)])
    assert not chain_membership(d2_d2, SubspaceTag.TOTAL_NOT_WOBS)
    assert not chain_membership(d2_d2, SubspaceTag.NULL_NOT_VAN)


def test_hatted_tags_limited_to_low_arity(m321):
    chain3 = SymbolChain.from_term(m321, [(1,), (2,), (3,)])
    with pytest.raises(UnsupportedTagError):
        chain_membership(chain3, SubspaceTag.TOTAL_NOT_WOBS)
    chain2 = SymbolChain.from_term(m321, [(2,), (2,)])
    with pytest.raises(UnsupportedTagError):
        chain_membership(chain2, SubspaceTag.WOBS_NOT_NULL)
    # the zero chain has no monomial to test, and is refused all the same
    with pytest.raises(UnsupportedTagError):
        chain_membership(SymbolChain.zero(m321, 3), SubspaceTag.TOTAL_NOT_WOBS)
    with pytest.raises(UnsupportedTagError):
        chain_membership(SymbolChain.zero(m321, 2), SubspaceTag.WOBS_NOT_NULL)
    assert chain_membership(SymbolChain.zero(m321, 2), SubspaceTag.NULL_NOT_VAN)


_M321 = FlatModel(3, 2, 1)
_HATTED = [tag for tag in SubspaceTag if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL)]


@pytest.mark.parametrize("tag", _HATTED, ids=[tag.value for tag in _HATTED])
@pytest.mark.parametrize("check", [
    lambda tag: hh_dimension(_M321, tag, 2, 2, 0),
    lambda tag: hh0_dimension(_M321, tag, 0),
    lambda tag: classified_hh2_dimension(_M321, tag, 2, 0),
    lambda tag: mv_membership(MultiVector.wedge_of_frames(_M321, (1, 2)), tag),
    lambda tag: mv_membership(MultiVector.zero(_M321, 2), tag),
    lambda tag: bivector_slice_basis(_M321, tag, 0),
    lambda tag: vf_membership(monomial_field(_M321, 1, (0, 0, 0)), tag),
    lambda tag: op_membership(MultiDiffOp(SymbolChain.from_term(_M321, [(1,)])), tag),
], ids=["hh_dimension", "hh0_dimension", "classified_hh2_dimension", "mv_membership",
        "mv_membership-zero", "bivector_slice_basis", "vf_membership", "op_membership"])
def test_objects_without_hatted_blocks_refuse_hatted_tags(check, tag):
    # cohomology slices, multivectors, vector fields and operators carry
    # only the wobs/null tags; all of them refuse the rest with one type,
    # also where no monomial is there to test
    with pytest.raises(UnsupportedTagError):
        check(tag)


_X3_D1_D3 = SymbolChain.from_term(_M321, [(1,), (3,)], Poly.monomial((0, 0, 1)))
_NOT_TAGS = ["wobs", None, FunctionClass.WOBS]


@pytest.mark.parametrize("tag", _NOT_TAGS, ids=["str", "none", "function-class"])
@pytest.mark.parametrize("check", [
    lambda tag: hh_dimension(_M321, tag, 2, 2, 0),
    lambda tag: hh0_dimension(_M321, tag, 0),
    lambda tag: classified_hh2_dimension(_M321, tag, 2, 0),
    lambda tag: mv_members(_M321, tag, [((0, 0, 0), (1, 2))]),
    lambda tag: mv_membership(MultiVector.wedge_of_frames(_M321, (1, 2)), tag),
    lambda tag: vf_membership(monomial_field(_M321, 1, (0, 0, 0)), tag),
    lambda tag: op_membership(MultiDiffOp(SymbolChain.from_term(_M321, [(1,)])), tag),
    lambda tag: chain_membership(SymbolChain.from_term(_M321, [(1,), (2,)]), tag),
    lambda tag: chain_membership(_X3_D1_D3, tag),
    lambda tag: chain_membership(SymbolChain.zero(_M321, 2), tag),
    lambda tag: monomial_member(_M321, (1, 0, 0), ((1,), (2,)), tag),
    lambda tag: monomial_member(_M321, (0, 0, 1), ((1,), (3,)), tag),
], ids=["hh_dimension", "hh0_dimension", "classified_hh2_dimension", "mv_members",
        "mv_membership", "vf_membership", "op_membership", "chain_membership",
        "chain_membership-normal-coefficient", "chain_membership-zero",
        "monomial_member", "monomial_member-normal-coefficient"])
def test_every_tag_gate_refuses_what_is_not_a_subspace_tag(check, tag):
    # a tag that is not a SubspaceTag is refused with the one tag error,
    # never an AttributeError, a KeyError or a silent answer (the null
    # chain x3 d1 (x) d3 is observable, so False would be wrong)
    with pytest.raises(UnsupportedTagError):
        check(tag)
