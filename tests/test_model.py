"""Function classes on the flat constraint model."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (CocycleClass, FlatModel, FunctionClass, MultiDiffOp, MultiVector, Poly,
                     Slice, SubspaceTag, SymbolChain, TruncatedStar, check_associativity,
                     classified_hh2_dimension, hh0_dimension, hh_dimension,
                     monomials_of_degree, reduce_multivector)
from conhoch.errors import NotConstraintError, PreconditionError
from conhoch.model import _member, _window
from conhoch.words import mv_members

from conftest import all_models, rand_poly, var
from reference import classify_function_by_definition, function_slice_basis


def test_model_validation():
    with pytest.raises(ValueError):
        FlatModel(2, 3, 1)
    with pytest.raises(ValueError):
        FlatModel(3, 2, -1)
    m = FlatModel(3, 2, 1)
    assert list(m.d_indices) == [1]
    assert list(m.dperp_indices) == [2]
    assert list(m.tcperp_indices) == [3]


def test_restriction_examples(m321):
    x1, x2, x3 = (var(m321, i) for i in (1, 2, 3))
    assert m321.restrict_to_c(x1 * x3).is_zero()
    assert m321.restrict_to_c(x2 * x2 + x3) == x2 * x2
    assert m321.restrict_to_c(Poly.constant(3, 5)) == Poly.constant(3, 5)


def test_classification_examples(m321):
    x1, x2, x3 = (var(m321, i) for i in (1, 2, 3))
    assert m321.classify_function(x1 * x3) is FunctionClass.NULL
    assert m321.classify_function(x1) is FunctionClass.TOTAL
    assert m321.classify_function(x2) is FunctionClass.WOBS


def test_monomial_criterion_agrees_with_definition():
    # the membership rule on a monomial with no slot words vs the
    # derivative/restriction route, on every model with n_total <= 5 and
    # degree <= 6
    for model in all_models(5):
        for degree in range(7):
            for exp in monomials_of_degree(model.n_total, degree):
                d, _, t = model.unit_counts(exp)
                cls = classify_function_by_definition(model, Poly.monomial(exp))
                for tag in ("wobs", "null"):
                    assert _member(_window(tag, d, t), ()) == \
                        FunctionClass[tag.upper()].contains(cls), (model, exp, tag)


def test_null_contained_in_wobs():
    rng = random.Random(11)
    for model in all_models(4):
        for _ in range(10):
            f = rand_poly(rng, model.n_total, 4)
            cls = model.classify_function(f)
            if cls is FunctionClass.NULL:
                assert all(
                    model.restrict_to_c(f.partial(a)).is_zero()
                    for a in model.d_indices)


def test_observables_form_subalgebra_nulls_an_ideal():
    rng = random.Random(12)
    model = FlatModel(4, 3, 2)
    wobs = [f for f in (rand_poly(rng, 4, 4) for _ in range(40))
            if FunctionClass.WOBS.contains(model.classify_function(f))]
    nulls = [f for f in (rand_poly(rng, 4, 4) for _ in range(60))
             if FunctionClass.NULL.contains(model.classify_function(f))]
    anything = [rand_poly(rng, 4, 4) for _ in range(10)]
    assert len(wobs) >= 5 and len(nulls) >= 3
    for f in wobs[:6]:
        for g in wobs[:6]:
            assert FunctionClass.WOBS.contains(model.classify_function(f * g))
            assert FunctionClass.WOBS.contains(model.classify_function(f + g))
    for f in nulls[:5]:
        for g in anything:
            assert model.classify_function(f * g) is FunctionClass.NULL


def test_reduce_function_examples(m321):
    x1, x2, x3 = (var(m321, i) for i in (1, 2, 3))
    red = m321.reduced_model()
    assert m321.reduce_function(x2 + x1 * x3) == var(red, 1)
    assert m321.reduce_function(x1 * x3).is_zero()
    m = FlatModel(4, 3, 1)
    # x2*x3 reindexes to the first two reduced coordinates
    f = Poly.monomial((0, 1, 1, 0))
    assert m.reduce_function(f) == Poly.monomial((1, 1))


def test_reduce_function_rejects_non_observables(m321):
    with pytest.raises(NotConstraintError):
        m321.reduce_function(var(m321, 1))


def test_reduce_function_is_algebra_morphism():
    rng = random.Random(13)
    model = FlatModel(4, 3, 1)
    wobs = [f for f in (rand_poly(rng, 4, 3) for _ in range(60))
            if FunctionClass.WOBS.contains(model.classify_function(f))][:8]
    assert len(wobs) >= 4
    for f in wobs:
        for g in wobs:
            assert model.reduce_function(f * g) == \
                model.reduce_function(f) * model.reduce_function(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_multivector_is_a_module_map(data):
    # reduction of f*X is reduce_function(f) times the reduction of X, for
    # observable f and observable bivectors X.  Both classes are spanned by
    # their monomials: a monomial without normal variables is made
    # observable by dropping its distribution variables, which fixes every
    # observable monomial; X draws one term per index pair and drops the
    # terms outside the class
    model = data.draw(st.sampled_from(all_models(5)))
    n = model.n_total

    def observable(e):
        return e if model.unit_counts(e)[2] else (0,) * model.n_null + e[model.n_null:]

    monomials = st.tuples(st.tuples(*[st.integers(0, 2)] * n).map(observable),
                          st.integers(-3, 3))
    f = Poly(n, data.draw(st.lists(monomials, max_size=3)))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    terms = zip(pairs, data.draw(st.lists(monomials, min_size=len(pairs),
                                          max_size=len(pairs))))
    x = MultiVector(model, 2, [(pair, Poly.monomial(e, q)) for pair, (e, q) in terms
                               if mv_members(model, SubspaceTag.WOBS, [(e, pair)])])
    assert reduce_multivector(x.scale(f)) == \
        reduce_multivector(x).scale(model.reduce_function(f))


def test_function_slice_basis_examples(m321):
    assert function_slice_basis(m321, FunctionClass.NULL, 1) == [var(m321, 3)]
    assert function_slice_basis(m321, FunctionClass.WOBS, 1) == \
        [var(m321, 2), var(m321, 3)]
    assert len(function_slice_basis(m321, FunctionClass.TOTAL, 2)) == 6


def test_function_slice_basis_respects_class(m321):
    # the basis comes from the definitions; the rule puts it in its class
    for tag in FunctionClass:
        for degree in range(4):
            for f in function_slice_basis(m321, tag, degree):
                assert tag.contains(m321.classify_function(f))


def test_degenerate_models():
    # no distribution: every function is observable
    m = FlatModel(2, 1, 0)
    assert m.classify_function(Poly.monomial((1, 0))) is FunctionClass.WOBS
    # full submanifold: only zero vanishes on C
    m = FlatModel(2, 2, 1)
    assert m.classify_function(Poly.monomial((0, 1))) is FunctionClass.WOBS
    assert m.classify_function(Poly.monomial((1, 0))) is FunctionClass.TOTAL


# ---------------------------------------------------------------------------
# the checked records
# ---------------------------------------------------------------------------

_M = FlatModel(3, 2, 1)
_BIVECTORS = [MultiVector.wedge_of_frames(_M, (1, 2)),  # observable
              MultiVector.wedge_of_frames(_M, (2, 3)),  # not observable
              MultiVector.wedge_of_frames(_M, (1,)),  # not a bivector
              MultiVector.zero(_M, 2)]
_NORMAL_PARTS = [SymbolChain.zero(_M, 1),
                 SymbolChain.from_term(_M, [(1, 3)], var(_M, 2)),
                 SymbolChain.from_term(_M, [(3,)]),  # too short
                 SymbolChain.from_term(_M, [(2, 3)]),  # a transverse letter
                 SymbolChain.from_term(_M, [(1, 3)], var(_M, 3)),  # a normal coefficient
                 SymbolChain.from_term(_M, [(1,), (3,)])]  # arity 2
_SIZES = st.one_of(st.integers(-1, 4), st.sampled_from([2.0, True]))
_RECORDS = st.one_of(
    st.tuples(st.just(FlatModel), st.tuples(_SIZES, _SIZES, _SIZES)),
    st.tuples(st.just(Slice), st.tuples(
        st.sampled_from([_M, FlatModel(2, 2, 0)]), st.integers(-1, 3), st.integers(-1, 3),
        st.integers(-1, 2), st.sampled_from(["total", "wobs", "null", "bogus"]))),
    st.tuples(st.just(CocycleClass), st.tuples(st.sampled_from(_BIVECTORS),
                                               st.sampled_from(_NORMAL_PARTS))))
#: a valid record of each class, for _replace and copy.replace
_BASE = {FlatModel: FlatModel(1, 0, 0), Slice: Slice(_M, 1, 1, 0),
         CocycleClass: CocycleClass(_BIVECTORS[0], _NORMAL_PARTS[0])}


def _outcome(build):
    """The record built, or the type and message of the error raised."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
def test_every_construction_path_checks_the_record(case):
    # the class call, _make, _replace and copy.replace (3.13) all run the
    # record's check: each refuses invalid fields with the constructor's
    # error and builds the constructor's record from valid ones, which
    # copy, deepcopy and pickle then rebuild
    cls, fields = case
    expected = _outcome(lambda: cls(*fields))
    named = dict(zip(cls._fields, fields))
    paths = [lambda: cls._make(fields), lambda: cls._make(iter(fields)),
             lambda: _BASE[cls]._replace(**named)]
    if hasattr(copy, "replace"):
        paths.append(lambda: copy.replace(_BASE[cls], **named))
    for path in paths:
        got = _outcome(path)
        assert type(got) is type(expected) and got == expected
    if type(expected) is cls:
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            got = clone(expected)
            assert type(got) is cls and got == expected


def test_records_keep_their_tuple_behaviour():
    m = FlatModel(3, 2, 1)
    assert repr(m) == "FlatModel(n_total=3, n_wobs=2, n_null=1)"
    assert m._asdict() == {"n_total": 3, "n_wobs": 2, "n_null": 1}
    assert m == (3, 2, 1) and hash(m) == hash((3, 2, 1))
    slc = Slice(m, 2, 3, 1)
    assert slc.tag == "total" and slc == (m, 2, 3, 1, "total")
    assert repr(slc) == ("Slice(model=FlatModel(n_total=3, n_wobs=2, n_null=1), arity=2, "
                         "sym_degree=3, coeff_degree=1, tag='total')")
    assert not hasattr(m, "__dict__") and not hasattr(slc, "__dict__")


# ---------------------------------------------------------------------------
# the one int check
# ---------------------------------------------------------------------------

_WOBS = SubspaceTag.WOBS
_STAR = TruncatedStar(_M, [MultiDiffOp(SymbolChain.from_term(_M, [(1,), (2,)]))])


@pytest.mark.parametrize("build, error", [
    (lambda: Slice(_M, 1.5, 2, 0), ValueError),
    (lambda: Slice(_M, True, 1, 0), ValueError),
    (lambda: Slice(_M, "1", 1, 0), ValueError),
    (lambda: Slice("x", 1, 1, 0), ValueError),
    (lambda: hh_dimension(_M, _WOBS, True, 2, 0), ValueError),
    (lambda: hh_dimension(_M, _WOBS, 2, True, 1), ValueError),
    (lambda: hh_dimension(_M, _WOBS, 2, 2.0, 1), ValueError),
    (lambda: hh_dimension(_M, _WOBS, 1, -1, 0), ValueError),
    (lambda: hh_dimension(_M, _WOBS, 2, 2, -1), ValueError),
    (lambda: hh0_dimension(_M, _WOBS, True), ValueError),
    (lambda: hh0_dimension(_M, _WOBS, 1.0), ValueError),
    (lambda: classified_hh2_dimension(_M, _WOBS, 2.0, 0), ValueError),
    (lambda: classified_hh2_dimension(_M, _WOBS, 2, -1), ValueError),
    (lambda: classified_hh2_dimension(FlatModel(2, 1, 1), _WOBS, 2, -1), ValueError),
    (lambda: check_associativity(_STAR, up_to=-1), PreconditionError),
    (lambda: check_associativity(_STAR, up_to=True), PreconditionError),
    (lambda: check_associativity(_STAR, up_to=1.0), PreconditionError),
], ids=["float-arity", "bool-arity", "str-arity", "str-model", "bool-hh-degree",
        "bool-K", "float-K", "negative-K", "negative-c", "bool-c-degree-0",
        "float-c-degree-0", "float-K-classified", "negative-c-classified-3,2,1",
        "negative-c-classified-2,1,1", "negative-up-to", "bool-up-to", "float-up-to"])
def test_degrees_and_orders_refuse_what_is_not_a_non_negative_int(build, error):
    # one check (model._check_int) refuses a degree, arity or order that is
    # a bool, a float, a string or negative: none is read as 1, counted as
    # an empty window or answered with "associative"
    with pytest.raises(error):
        build()
