"""Sampled oracles that the tests compare the exact library routines with.

Each one decides a question by evaluating operators on monomial
arguments up to a degree window, independently of the symbol calculus
that the library decides it with:

* operator equality on a window (:func:`operators_equal_on_window`) and
  the window that separates operators of a given order and coefficient
  degree (:func:`sufficiency_degree`);
* operator membership from the defining function-class conditions
  (:func:`op_membership_functional`);
* the order-r associator of a star product, evaluated from its cochains
  on every monomial triple of a window (:func:`sampled_defects`);
* the tagged slot tuples of a slice window, filtered monomial by
  monomial through the public membership test with one witness
  coefficient (:func:`tagged_slots_by_monomial`).
"""

from __future__ import annotations

import itertools
from typing import List

from conhoch import (FlatModel, FunctionClass, MultiDiffOp, Poly, SubspaceTag, SymbolChain,
                     TruncatedStar, monomial_member)
from conhoch import starprod
from conhoch.cohomology import _all_slot_tuples
from conhoch.diffops import apply_to_monomials, monomial_argument_tuples
from conhoch.errors import UnsupportedTagError


def operators_equal_on_window(a: MultiDiffOp, b: MultiDiffOp,
                              max_total_degree: int) -> bool:
    """Compare two operators by evaluating on every tuple of monomials up
    to the given total degree."""
    if a.arity != b.arity or a.model != b.model:
        return False
    for args in monomial_argument_tuples(a.model, a.arity, max_total_degree):
        if apply_to_monomials(a, args) != apply_to_monomials(b, args):
            return False
    return True


def sufficiency_degree(chain: SymbolChain) -> int:
    """Evaluation-degree window that separates operators of the given
    order and coefficient degree: max operator order + coefficient
    degree + 1."""
    return chain.max_total_order() + max(chain.max_coeff_degree(), 0) + 1


def op_membership_functional(op: MultiDiffOp, tag: SubspaceTag,
                             max_degree: int = 4) -> bool:
    """Operator membership from the defining conditions, tested on the
    monomial bases of the function classes up to the given per-argument
    degree.

    Observable operators send observable arguments to observables and
    send any tuple with a null argument (others observable) to nulls;
    null operators send observable tuples to nulls.
    """
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise UnsupportedTagError("operators carry only wobs/null tags")
    model = op.model
    wobs_monomials: List[Poly] = []
    for degree in range(1, max_degree + 1):
        wobs_monomials.extend(model.function_slice_basis(FunctionClass.WOBS, degree))
    for args in itertools.product(wobs_monomials, repeat=op.arity):
        value = op.apply(list(args))
        value_class = model.classify_function(value)
        if tag is SubspaceTag.NULL:
            if not FunctionClass.NULL.contains(value_class):
                return False
            continue
        if not FunctionClass.WOBS.contains(value_class):
            return False
        if any(model.classify_function(f) is FunctionClass.NULL for f in args):
            if not FunctionClass.NULL.contains(value_class):
                return False
    return True


def sampled_window(star: TruncatedStar, order: int) -> int:
    """Evaluation window that separates order-r associators: the largest
    ord C_p + ord C_q over p + q = r, with ord C_0 = 0."""
    orders = [0] + [c.symbol.max_total_order() for c in star.cochains]
    return max(orders[p] + orders[order - p] for p in range(order + 1))


def sampled_defects(star: TruncatedStar, order: int):
    """The order-r associator evaluated from the cochains on every
    monomial triple of the window, in window order."""
    for args in monomial_argument_tuples(star.model, 3, sampled_window(star, order)):
        polys = tuple(Poly.monomial(e) for e in args)
        yield polys, starprod._associativity_defect(star, order, *polys)


def _witness_exponent(model: FlatModel, d_units: int, t_units: int):
    """A coefficient exponent with the given distribution and normal unit
    counts: all distribution units on x1, all normal units on the first
    normal variable."""
    exp = [0] * model.n_total
    if d_units:
        if model.n_null == 0:
            raise ValueError("distribution units without distribution variables")
        exp[0] = d_units
    if t_units:
        if model.n_wobs == model.n_total:
            raise ValueError("normal units without normal variables")
        exp[model.n_wobs] = t_units
    return tuple(exp)


def tagged_slots_by_monomial(model: FlatModel, arity: int, sym_degree: int,
                             tag: str, d_units: int, t_units: int):
    """Every slot tuple of the (arity, K) window whose monomial chain, with
    a witness coefficient of the given unit counts, passes
    monomial_member, in the order of the untagged enumeration."""
    gamma = _witness_exponent(model, d_units, t_units)
    subtag = SubspaceTag(tag)
    return tuple(s for s in _all_slot_tuples(model, arity, sym_degree)
                 if monomial_member(model, gamma, s, subtag))
