"""Oracles that the tests compare the exact library routines with.

Each one decides a question by evaluating operators on monomial
arguments up to a degree window, independently of the symbol calculus
that the library decides it with:

* operator equality on a window (:func:`operators_equal_on_window`) and
  the window that separates operators of a given order and coefficient
  degree (:func:`sufficiency_degree`);
* the class of a function and the membership of a vector field from
  their definitions, by restricting to C and differentiating along the
  distribution (:func:`classify_function_by_definition`,
  :func:`vf_membership_by_definition`), where the library applies the
  monomial rule of :mod:`conhoch.model`;
* operator membership from the defining function-class conditions
  (:func:`op_membership_functional`);
* the order-r associator of a star product, evaluated from its cochains
  on every monomial triple of a window (:func:`sampled_defects`);
* an operator on polynomial arguments by Poly arithmetic, one iterated
  partial derivative per slot times the coefficient
  (:func:`apply_by_partials`), where the library extends the evaluation on
  monomials multilinearly, and the Lie bracket of two fields as the
  double sum over coordinates (:func:`bracket_by_partials`), where the
  library builds it from ``VectorField.apply``;
* the slot tuples of a slice window, listed as a product of word pools
  per tuple of word lengths (:func:`slot_tuples_by_pools`), and the
  tagged ones among them, filtered monomial by monomial through the
  public membership test with one witness coefficient
  (:func:`tagged_slots_by_monomial`).

It also holds test-only constructions that no command and no library
routine calls: the monomial basis of a function class
(:func:`function_slice_basis`), the shuffles of a word
(:func:`shuffle_pairs`, the oracle of ``words._word_splits``) and the
reduced shuffle coproduct they give (:func:`shuffle_coproduct`), the
symmetric product of arity-1 chains and its collapse of arity-2 chains
(:func:`chain_vee`,
:func:`vee_collapse`), and membership in the function span of the
observable chains (:func:`in_function_span_wobs`).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from conhoch import (FlatModel, FunctionClass, MultiDiffOp, Poly, SubspaceTag, SymbolChain,
                     TruncatedStar, VectorField, monomial_member, vee)
from conhoch import starprod
from conhoch.diffops import apply_to_monomials, monomial_argument_tuples
from conhoch.errors import UnsupportedTagError
from conhoch.model import _member, _same_model, _slot_profile, _window, monomials_of_degree


def shuffle_pairs(word: Sequence[int]):
    """All splittings of a word into an ordered pair of nonempty blocks,
    one pair per (l, k-l)-shuffle.  Repeated letters produce repeated
    pairs, which is exactly the shuffle multiplicity."""
    k = len(word)
    positions = range(k)
    for ell in range(1, k):
        for left_pos in itertools.combinations(positions, ell):
            left = tuple(word[p] for p in left_pos)
            right_set = set(left_pos)
            right = tuple(word[p] for p in positions if p not in right_set)
            yield left, right


def classify_function_by_definition(model: FlatModel, f: Poly) -> FunctionClass:
    """Finest class of f by the definitions: null when the restriction to
    C vanishes, observable when every derivative along the distribution
    restricts to zero on C."""
    if model.restrict_to_c(f).is_zero():
        return FunctionClass.NULL
    if all(model.restrict_to_c(f.partial(a)).is_zero() for a in model.d_indices):
        return FunctionClass.WOBS
    return FunctionClass.TOTAL


def vf_membership_by_definition(x: VectorField, tag: SubspaceTag) -> bool:
    """Constraint membership of a vector field by the definitions, on the
    components restricted to C.

    Null: the components transverse to the distribution vanish on C.
    Wobs: the components normal to C vanish on C, and the derivative of
    every non-distribution component along the distribution frame
    vanishes on C (the bracket condition tested against the frame, which
    generates the distribution sections as a module).
    """
    model = x.model
    transverse = [x.components[i - 1] for i in range(model.n_null + 1, model.n_total + 1)]
    if tag is SubspaceTag.NULL:
        return all(model.restrict_to_c(c).is_zero() for c in transverse)
    if tag is not SubspaceTag.WOBS:
        raise UnsupportedTagError("vector fields carry only wobs/null tags")
    return (all(model.restrict_to_c(x.components[i - 1]).is_zero()
                for i in model.tcperp_indices)
            and all(model.restrict_to_c(c.partial(a)).is_zero()
                    for a in model.d_indices for c in transverse))


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
    return chain.max_total_order() + max((sum(g) for g, _, _ in chain.monomials()),
                                         default=0) + 1


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
        wobs_monomials.extend(function_slice_basis(model, FunctionClass.WOBS, degree))
    for args in itertools.product(wobs_monomials, repeat=op.arity):
        value = op.apply(list(args))
        value_class = classify_function_by_definition(model, value)
        if tag is SubspaceTag.NULL:
            if not FunctionClass.NULL.contains(value_class):
                return False
            continue
        if not FunctionClass.WOBS.contains(value_class):
            return False
        if any(classify_function_by_definition(model, f) is FunctionClass.NULL
               for f in args):
            if not FunctionClass.NULL.contains(value_class):
                return False
    return True


def apply_by_partials(op: MultiDiffOp, fs: Sequence[Poly]) -> Poly:
    """op(f1, .., fk) as the sum over symbol terms of the coefficient times
    the product of the iterated partial derivatives of the arguments."""
    out = Poly.zero(op.model.n_total)
    for slots, coeff in op.symbol.terms.items():
        term = coeff
        for word, f in zip(slots, fs):
            term = term * f.partial_word(word)
        out = out + term
    return out


def bracket_by_partials(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]_j = sum_i X_i d_i Y_j - Y_i d_i X_j."""
    n = x.model.n_total
    comps = []
    for j in range(n):
        term = Poly.zero(n)
        for i in range(n):
            term = term + x.components[i] * y.components[j].partial(i + 1)
            term = term - y.components[i] * x.components[j].partial(i + 1)
        comps.append(term)
    return VectorField(x.model, comps)


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


def slot_tuples_by_pools(model: FlatModel, arity: int, sym_degree: int):
    """Every tuple of slot words with the given arity and total symmetric
    degree: per tuple of word lengths (the compositions of sym_degree
    into arity positive parts, in ascending lexicographic order), the
    product of the pools of sorted words of those lengths."""
    letters = range(1, model.n_total + 1)
    out = []
    for split in reversed(monomials_of_degree(arity, sym_degree - arity)):
        pools = [tuple(itertools.combinations_with_replacement(letters, k + 1))
                 for k in split]
        out.extend(itertools.product(*pools))
    return tuple(out)


def tagged_slots_by_monomial(model: FlatModel, arity: int, sym_degree: int,
                             tag: str, d_units: int, t_units: int):
    """Every slot tuple of the (arity, K) window whose monomial chain, with
    a witness coefficient of the given unit counts, passes
    monomial_member, in the order of the untagged enumeration."""
    gamma = _witness_exponent(model, d_units, t_units)
    subtag = SubspaceTag(tag)
    return tuple(s for s in slot_tuples_by_pools(model, arity, sym_degree)
                 if monomial_member(model, gamma, s, subtag))


def function_slice_basis(model: FlatModel, tag: FunctionClass, degree: int) -> List[Poly]:
    """Monomial basis of the tag class among homogeneous polynomials of
    the given total degree, in canonical (descending grlex) order, each
    monomial classified by :func:`classify_function_by_definition`."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    monomials = (Poly.monomial(exp) for exp in monomials_of_degree(model.n_total, degree))
    return [f for f in monomials if tag.contains(classify_function_by_definition(model, f))]


def shuffle_coproduct(model: FlatModel, word: Sequence[int],
                      coeff=1) -> SymbolChain:
    """Reduced shuffle coproduct of a single symmetric word, as an
    arity-2 chain; the coefficient rides along unchanged.  Words of
    length 1 map to zero."""
    word = tuple(sorted(word))
    poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
    terms = []
    for left, right in shuffle_pairs(word):
        terms.append(((left, right), poly))
    return SymbolChain(model, 2, terms)


def chain_vee(a: SymbolChain, b: SymbolChain) -> SymbolChain:
    """Symmetric product of arity-1 chains."""
    if a.arity != 1 or b.arity != 1:
        raise ValueError("vee multiplies arity-1 chains")
    _same_model(a.model, b.model)
    terms = []
    for (wa,), ca in a.terms.items():
        for (wb,), cb in b.terms.items():
            terms.append(((vee(wa, wb),), ca * cb))
    return SymbolChain(a.model, 1, terms)


def vee_collapse(chain: SymbolChain) -> SymbolChain:
    """Multiply the two slots of an arity-2 chain back together."""
    if chain.arity != 2:
        raise ValueError("vee_collapse is defined for arity 2")
    terms = []
    for (w1, w2), coeff in chain.terms.items():
        terms.append(((vee(w1, w2),), coeff))
    return SymbolChain(chain.model, 1, terms)


def in_function_span_wobs(chain: SymbolChain) -> bool:
    """Membership in the span of observable chains with arbitrary smooth
    (polynomial) prefactors: the observable condition with the
    distribution-variable restriction on the coefficient waived (the
    prefactor absorbs those variables), so each monomial is tested as if
    its coefficient had no distribution units.  Together with the prolonged
    normal block this space decomposes the whole slice, monomial by
    monomial."""
    model = chain.model
    return all(_member(_window("wobs", 0, model.unit_counts(gamma)[2]),
                       [_slot_profile(model, w) for w in slots])
               for gamma, slots, _ in chain.monomials())
