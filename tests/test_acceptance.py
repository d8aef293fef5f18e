"""Acceptance criteria.

Each test covers one acceptance criterion at its stated tolerance (exact
equality throughout; the arithmetic is rational) and prints one PASS
line when it holds.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines.
"""

import random
import time
from fractions import Fraction

from conhoch import (FlatModel, FunctionClass, MultiDiffOp, MultiVector, Poly,
                     SubspaceTag, SymbolChain, TruncatedStar,
                     bivector_slice_basis, chain_membership,
                     classified_hh2_dimension, classify_infinitesimal,
                     coisotropy_check, decompose_sym, decompose_tensor2,
                     differential_d, equivalence_report, find_constraint_potential,
                     hh0_dimension, hh_dimension, hkr, normal_class_basis)
from conhoch.decompose import Slice, slice_basis

from conftest import all_models, rand_chain, rand_tagged_chain, var
from reference import (function_slice_basis, hochschild_delta, in_function_span_wobs,
                       shuffle_coproduct, vee_collapse)

GRID_MODELS = (FlatModel(3, 2, 1), FlatModel(4, 2, 1),
               FlatModel(4, 3, 1), FlatModel(4, 3, 2))
GRID = [(K, c) for K in (2, 3) for c in (0, 1, 2)]


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_counterexample_reproduction(m321):
    start = time.perf_counter()
    word = SymbolChain.from_term(m321, [(1, 3)])
    op = MultiDiffOp(word)
    expected = (SymbolChain.from_term(m321, [(1,), (3,)], -1)
                + SymbolChain.from_term(m321, [(3,), (1,)], -1))

    delta = hochschild_delta(op)
    assert delta.symbol == expected
    assert chain_membership(expected, SubspaceTag.WOBS)
    assert find_constraint_potential(expected) is None

    assert not chain_membership(word, SubspaceTag.WOBS)
    witness = var(m321, 1) * var(m321, 3)
    assert m321.classify_function(witness) is FunctionClass.NULL
    assert op.apply([witness]) == Poly.constant(3, 1)
    assert m321.classify_function(op.apply([witness])) is not FunctionClass.NULL

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "coboundary of d1vd3 is the observable symmetric 2-chain with "
               f"no observable potential ({elapsed * 1000:.0f} ms)")


def test_criterion_2_degree2_slice_verification_wobs():
    start = time.perf_counter()
    checks = 0
    for model in GRID_MODELS:
        for K, c in GRID:
            hh = hh_dimension(model, SubspaceTag.WOBS, 2, K, c)
            rhs = classified_hh2_dimension(model, SubspaceTag.WOBS, K, c)
            assert hh == rhs, (model, K, c, hh, rhs)
            checks += 1
    spot = hh_dimension(FlatModel(3, 2, 1), SubspaceTag.WOBS, 2, 2, 0)
    assert spot == 3 == 2 + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(2, f"degree-2 observable slices match the classification on "
               f"{checks} slices across 4 models ({elapsed:.1f} s)")


def test_criterion_3_degree2_slice_verification_null():
    start = time.perf_counter()
    checks = 0
    for model in GRID_MODELS:
        for K, c in GRID:
            hh = hh_dimension(model, SubspaceTag.NULL, 2, K, c)
            rhs = classified_hh2_dimension(model, SubspaceTag.NULL, K, c)
            assert hh == rhs, (model, K, c, hh, rhs)
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, f"degree-2 null slices match the restricted classification on "
               f"{checks} slices ({elapsed:.1f} s)")


def test_criterion_4_low_degrees_and_injectivity():
    for model in GRID_MODELS:
        for c in (0, 1, 2):
            assert hh0_dimension(model, SubspaceTag.WOBS, c) == \
                len(function_slice_basis(model, FunctionClass.WOBS, c))
            fields = slice_basis(Slice(model, 1, 1, c, "wobs"))
            assert hh_dimension(model, SubspaceTag.WOBS, 1, 1, c) == len(fields)
            for K in (2, 3):
                assert hh_dimension(model, SubspaceTag.WOBS, 1, K, c) == 0
    hkr_checked = 0
    for model in GRID_MODELS:
        for c in (0, 1):
            for x in bivector_slice_basis(model, SubspaceTag.WOBS, c):
                assert find_constraint_potential(hkr(x)) is None
                hkr_checked += 1
    _report(4, "degree 0/1 reproduce the observable functions and fields; "
               f"antisymmetrisation is injective on {hkr_checked} bivector "
               "basis classes")


def test_criterion_5_structural_identities(m321):
    rng = random.Random(2024)
    failures = 0

    for _ in range(100):
        chain = rand_chain(rng, m321, rng.randint(1, 3), 4, 2)
        if not differential_d(differential_d(chain)).is_zero():
            failures += 1

    for _ in range(100):
        op = MultiDiffOp(rand_chain(rng, m321, rng.randint(1, 3), 4, 2))
        if not hochschild_delta(hochschild_delta(op)).symbol.is_zero():
            failures += 1

    for _ in range(100):
        chain = rand_chain(rng, m321, rng.randint(1, 3), 4, 2)
        if hochschild_delta(MultiDiffOp(chain)).symbol != differential_d(chain):
            failures += 1

    scaling_checked = 0
    for k in range(2, 6):
        for _ in range(25):
            word = tuple(sorted(rng.randint(1, 3) for _ in range(k)))
            coeff = Poly.monomial(tuple(rng.randint(0, 1) for _ in range(3)),
                                  Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            rebuilt = vee_collapse(shuffle_coproduct(m321, word, coeff))
            if rebuilt != SymbolChain.from_term(m321, [word], coeff * (2 ** k - 2)):
                failures += 1
            scaling_checked += 1

    assert failures == 0
    assert scaling_checked == 100
    _report(5, "both differentials square to zero, the operator and symbol "
               "coboundary routes agree, and the shuffle rebuild scaling "
               "holds (100 randomized instances each, zero failures)")


def test_criterion_6_decomposition_round_trips(m321):
    rng = random.Random(2025)

    for _ in range(100):
        chain = rand_chain(rng, m321, 1, 4, 2, n_terms=3)
        w, t = decompose_sym(chain)
        assert w + t == chain
        assert in_function_span_wobs(w)
        assert chain_membership(t, SubspaceTag.TOTAL_NOT_WOBS)

    for _ in range(100):
        chain = rand_chain(rng, m321, 2, 4, 2, n_terms=3)
        dec = decompose_tensor2(chain)
        assert dec.function_wobs_part + dec.total_not_wobs_part == chain
        assert chain_membership(dec.total_not_wobs_part, SubspaceTag.TOTAL_NOT_WOBS)
        if dec.vanishing_part is not None:
            assert dec.vanishing_part + dec.null_not_van_part == chain
            assert chain_membership(dec.null_not_van_part, SubspaceTag.NULL_NOT_VAN)

    # differential of a prolonged-normal chain splits with zero remainder
    split_checked = 0
    while split_checked < 100:
        K = rng.choice((2, 3, 4))
        c = rng.choice((0, 1))
        psi = decompose_sym(rand_tagged_chain(rng, m321, 1, K, c, "total", 2))[1]
        if psi.is_zero():
            continue
        image = differential_d(psi)
        dec = decompose_tensor2(image)
        remainder = image - dec.total_not_wobs_part
        assert chain_membership(remainder, SubspaceTag.NULL_NOT_VAN)
        assert dec.total_not_wobs_part + remainder == image
        split_checked += 1

    _report(6, "canonical decompositions rebuild their input exactly and "
               "every component lands in its block (100 instances per lemma)")


def test_criterion_7_equivalence_end_to_end(m321):
    x13 = MultiVector.wedge_of_frames(m321, (1, 3))
    c1 = MultiDiffOp(hkr(x13))
    base = TruncatedStar(m321, [c1])
    separated = 0
    for K in (2, 3):
        for c in (0, 1):
            for psi in normal_class_basis(m321, K, c):
                shifted = TruncatedStar(m321, [MultiDiffOp(c1.symbol + differential_d(psi))])
                report = equivalence_report(base, shifted, 0)
                assert report["plain_equivalent"] and report["S"] is not None
                assert not report["constraint_equivalent"]
                cls = classify_infinitesimal(shifted.cochain(1))
                assert cls.bivector == x13
                assert cls.normal_part == psi
                separated += 1
    assert separated >= 6
    _report(7, f"{separated} normal-word shifts of the antisymmetric star are "
               "plainly equivalent, never constraint equivalent, and classify "
               "back to their shift exactly")


def test_criterion_8_coisotropy_link(m321):
    checked = 0
    for model in all_models(4):
        for c in (0, 1):
            for x in bivector_slice_basis(model, SubspaceTag.WOBS, c):
                assert coisotropy_check(x), (model, c, x)
                checked += 1
    assert not coisotropy_check(MultiVector.wedge_of_frames(m321, (2, 3)))
    _report(8, f"all {checked} observable bivector basis elements over "
               "models up to dimension 4 are coisotropic; the designated "
               "non-observable witness fails")
