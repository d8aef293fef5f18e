"""Shared fixtures and random-object generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

import pytest

from conhoch import (FlatModel, Poly, SubspaceTag, SymbolChain, VectorField,
                     monomials_of_degree)
from conhoch.decompose import Slice, slice_monomials


@pytest.fixture
def m321() -> FlatModel:
    return FlatModel(3, 2, 1)


@pytest.fixture
def m431() -> FlatModel:
    return FlatModel(4, 3, 1)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def mono(nvars: int, exp, coeff=1) -> Poly:
    return Poly.monomial(tuple(exp), coeff)


def var(model: FlatModel, i: int) -> Poly:
    """The coordinate function x_i (1-based)."""
    return Poly.monomial(tuple(int(j == i) for j in range(1, model.n_total + 1)))


def monomials_up_to(nvars: int, max_degree: int) -> list:
    return [e for d in range(max_degree + 1) for e in monomials_of_degree(nvars, d)]


def all_models(n_total_max: int, require_proper: bool = False) -> List[FlatModel]:
    """Every dimension triple with n_total <= n_total_max; with
    require_proper only strictly nested nonzero blocks."""
    out = []
    for n_total in range(1, n_total_max + 1):
        for n_wobs in range(0, n_total + 1):
            for n_null in range(0, n_wobs + 1):
                if require_proper and not (n_total > n_wobs > n_null > 0):
                    continue
                out.append(FlatModel(n_total, n_wobs, n_null))
    return out


def rand_fraction(rng: random.Random) -> Fraction:
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return q if q else Fraction(1)


def rand_poly(rng: random.Random, nvars: int, max_degree: int,
              n_terms: int = 2) -> Poly:
    terms = {}
    for _ in range(n_terms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = rand_fraction(rng)
    return Poly(nvars, terms)


def rand_word(rng: random.Random, model: FlatModel, length: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.randint(1, model.n_total) for _ in range(length)))


def rand_chain(rng: random.Random, model: FlatModel, arity: int,
               max_sym_degree: int, max_coeff_degree: int,
               n_terms: int = 2) -> SymbolChain:
    if max_sym_degree < arity:
        raise ValueError(f"every one of {arity} slots needs symmetric degree >= 1, "
                         f"so max_sym_degree {max_sym_degree} is too small")
    terms = []
    for _ in range(n_terms):
        lengths = [rng.randint(1, max(1, max_sym_degree - arity + 1))
                   for _ in range(arity)]
        while sum(lengths) > max_sym_degree:
            j = max(range(arity), key=lambda i: lengths[i])
            lengths[j] = max(1, lengths[j] - 1)
        slots = tuple(rand_word(rng, model, k) for k in lengths)
        terms.append((slots, rand_poly(rng, model.n_total, max_coeff_degree, 1)))
    return SymbolChain(model, arity, terms)


def rand_tagged_chain(rng: random.Random, model: FlatModel, arity: int,
                      sym_degree: int, coeff_degree: int, tag: str,
                      n_terms: int = 2) -> SymbolChain:
    """Random combination of tagged slice basis monomials."""
    pool = slice_monomials(Slice(model, arity, sym_degree, coeff_degree, tag))
    if not pool:
        return SymbolChain.zero(model, arity)
    terms = []
    for _ in range(min(n_terms, len(pool))):
        gamma, slots = rng.choice(pool)
        terms.append((slots, Poly.monomial(gamma, rand_fraction(rng))))
    return SymbolChain(model, arity, terms)


def frame_field(model: FlatModel, index: int, coeff: Poly) -> VectorField:
    """coeff * d_index (1-based): one nonzero component."""
    comps = [Poly.zero(model.n_total)] * model.n_total
    comps[index - 1] = coeff
    return VectorField(model, comps)


def monomial_field(model: FlatModel, index: int, exp) -> VectorField:
    return frame_field(model, index, Poly.monomial(tuple(exp)))


def rand_field_in_class(rng: random.Random, model: FlatModel, tag: SubspaceTag,
                        max_degree: int = 2, n_terms: int = 2) -> VectorField:
    """Random vector field in the tagged class, built from monomial fields
    that satisfy the component conditions."""
    from conhoch import vf_membership

    comps = [Poly.zero(model.n_total)] * model.n_total
    tries = 0
    while n_terms and tries < 200:
        tries += 1
        i = rng.randint(1, model.n_total)
        exp = [0] * model.n_total
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(model.n_total)] += 1
        candidate = frame_field(model, i, Poly.monomial(tuple(exp), rand_fraction(rng)))
        if vf_membership(candidate, tag):
            comps[i - 1] = comps[i - 1] + candidate.components[i - 1]
            n_terms -= 1
    return VectorField(model, comps)
