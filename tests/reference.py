"""Oracles that the tests compare the exact library routines with.

Each one decides a question by evaluating operators on monomial
arguments up to a degree window, independently of the symbol calculus
that the library decides it with:

* every tuple of monomial arguments up to a total degree, in the window
  order that star-check's witness follows
  (:func:`monomial_argument_tuples`);
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
  (:func:`tagged_slots_by_monomial`);
* membership in the hatted complement blocks by the category of each
  slot word, 'that', 'nhat' or 'wnhat' (:func:`hatted_member_by_category`),
  where the library tests the words against fixed windows of the
  monomial rule of :mod:`conhoch.model`;
* the Hochschild coboundary of an operator from its operator-level
  formula (:func:`hochschild_delta`) and the chain-map identity
  Op(D phi) = delta(Op phi) (:func:`chain_map_check`), where the delta
  command takes the symbol differential ``differential_d``;
* the pullback of polynomials, chains, multivectors and vector fields
  along a linear change of coordinates (:func:`pullback_poly`,
  :func:`pullback_chain`, :func:`pullback_multivector`,
  :func:`pullback_field`, with :func:`inverse_matrix`), where the
  library decides membership monomial by monomial in the model's own
  coordinates.

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

import functools
import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from conhoch import (FlatModel, FunctionClass, MultiDiffOp, MultiVector, Poly, SubspaceTag,
                     SymbolChain, TruncatedStar, VectorField, differential_d, monomial_member, vee)
from conhoch import starprod
from conhoch.dense import RationalMatrix
from conhoch.diffops import apply_to_monomials
from conhoch.errors import InvariantError, UnsupportedTagError
from conhoch.model import _member, _same_model, _slot_profile, _window, monomials_of_degree
from conhoch.multivector import sort_with_sign
from conhoch.poly import merge_terms
from conhoch.words import _word_splits


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


def monomial_argument_tuples(model: FlatModel, arity: int, max_total_degree: int):
    """All tuples of monomial exponents with the given total degree bound,
    by total degree, then by the degrees of the arguments ascending."""
    nvars = model.n_total
    for total in range(max_total_degree + 1):
        for split in reversed(monomials_of_degree(arity, total)):
            pools = [monomials_of_degree(nvars, d) for d in split]
            yield from itertools.product(*pools)


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


def _max_total_order(chain: SymbolChain) -> int:
    """The largest total symmetric degree (sum of slot lengths) of a term."""
    return max((sum(len(w) for w in slots) for slots in chain.terms), default=0)


def sufficiency_degree(chain: SymbolChain) -> int:
    """Evaluation-degree window that separates operators of the given
    order and coefficient degree: max operator order + coefficient
    degree + 1."""
    return _max_total_order(chain) + max((sum(g) for g, _, _ in chain.monomials()),
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


def hochschild_delta(op: MultiDiffOp) -> MultiDiffOp:
    """The Hochschild coboundary of a multi-differential operator.

    Computed from the operator-level formula

        (delta D)(f_0, .., f_n) = f_0 D(f_1, .., f_n)
            + sum_{i=0}^{n-1} (-1)^{i+1} D(f_0, .., f_i f_{i+1}, .., f_n)
            + (-1)^{n+1} D(f_0, .., f_{n-1}) f_n

    expanded on symbols via the Leibniz rule.  The expansion passes
    through terms with an empty derivative slot (plain multiplication by
    one argument); these cancel in the total because the operator
    vanishes on constants (checked: InvariantError otherwise).
    """
    n = op.arity
    pairs = []
    for slots, coeff in op.symbol.terms.items():
        pairs.append((((),) + slots, coeff))
        sign_last = -1 if (n + 1) % 2 else 1
        pairs.append((slots + ((),), coeff * sign_last))
        for i in range(n):
            sign = -1 if (i + 1) % 2 else 1
            for left, right, mult in _word_splits(slots[i]):
                key = slots[:i] + (left, right) + slots[i + 1:]
                pairs.append((key, coeff * (sign * mult)))

    terms = merge_terms(pairs)
    for key in terms:
        if any(len(w) == 0 for w in key):
            raise InvariantError("hochschild_delta: coboundary of a normalized "
                                 f"operator kept a constant slot: {key}")
    return MultiDiffOp(op.symbol._like(terms, n + 1))


def chain_map_check(phi: SymbolChain) -> bool:
    """Verify Op(D phi) = delta(Op(phi)) exactly, on symbols: a normalized
    multi-differential operator is determined by its symbol (Hochschild,
    Kostant and Rosenberg 1962; Gerstenhaber 1963), and both sides are
    symbols already."""
    return differential_d(phi) == hochschild_delta(MultiDiffOp(phi)).symbol


def sampled_window(star: TruncatedStar, order: int) -> int:
    """Evaluation window that separates order-r associators: the largest
    ord C_p + ord C_q over p + q = r, with ord C_0 = 0."""
    orders = [0] + [_max_total_order(c.symbol) for c in star.cochains]
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


def word_category(model: FlatModel, word: Sequence[int]) -> str:
    """Exactly one of: 'that' (contains a normal letter), 'nhat' (tangent
    letters with at least one distribution letter), 'wnhat' (letters all
    transverse-in-C), counted letter by letter."""
    if any(i > model.n_wobs for i in word):
        return "that"
    return "nhat" if any(i <= model.n_null for i in word) else "wnhat"


#: the word categories of each hatted tag; a monomial needs one word of them
HAT_WORDS = {SubspaceTag.NULL_NOT_VAN: ("nhat",), SubspaceTag.WOBS_NOT_NULL: ("wnhat",),
             SubspaceTag.TOTAL_NOT_WOBS: ("that",),
             SubspaceTag.TOTAL_NOT_NULL: ("that", "wnhat")}


def hatted_member_by_category(model: FlatModel, gamma, slots, tag: SubspaceTag) -> bool:
    """Membership of a monomial chain in a hatted block by word category:
    a coefficient free of normal variables (a section over C), one word of
    the tag's categories, and an 'nhat' word only in the null complement."""
    if any(gamma[model.n_wobs:]):
        return False
    cats = [word_category(model, w) for w in slots]
    return (any(c in HAT_WORDS[tag] for c in cats)
            and (tag is SubspaceTag.NULL_NOT_VAN or "nhat" not in cats))


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


def pullback_poly(f: Poly, a: Sequence[Sequence[Fraction]]) -> Poly:
    """f o A: each variable x_i becomes sum_j A_ij x_j."""
    n = f.nvars
    linear = [Poly(n, {tuple(int(k == j) for k in range(n)): a[i][j]
                       for j in range(n) if a[i][j]}) for i in range(n)]
    out = Poly.zero(n)
    for exp, q in f.terms.items():
        term = Poly.constant(n, q)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * linear[i]
        out = out + term
    return out


def inverse_matrix(a: Sequence[Sequence[Fraction]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """A^-1: the right half of the reduced row echelon form of [A | 1].
    The pullback checks invert each drawn matrix many times, so the
    inverse is kept per matrix."""
    return _inverse(tuple(map(tuple, a)))


@functools.lru_cache(maxsize=64)
def _inverse(a: Tuple[Tuple[Fraction, ...], ...]) -> Tuple[Tuple[Fraction, ...], ...]:
    n = len(a)
    return tuple(tuple(row[n:]) for row in RationalMatrix(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]).rref()[0])


def pullback_chain(chain: SymbolChain, a: Sequence[Sequence[Fraction]]) -> SymbolChain:
    """The pullback of a chain along x -> Ax: each letter i of a slot word
    becomes sum_j B_ji letter j with B = A^-1, expanded in the symmetric
    product, and each coefficient gamma becomes gamma o A."""
    b = inverse_matrix(a)
    letters = range(1, chain.model.n_total + 1)

    def expand(word):
        out = {(): Fraction(1)}
        for i in word:
            grown = {}
            for w, q in out.items():
                for j in letters:
                    if b[j - 1][i - 1]:
                        key = vee(w, (j,))
                        grown[key] = grown.get(key, 0) + q * b[j - 1][i - 1]
            out = grown
        return out.items()

    terms = []
    for slots, coeff in chain.terms.items():
        pulled = pullback_poly(coeff, a)
        for parts in itertools.product(*map(expand, slots)):
            words, qs = zip(*parts)
            terms.append((words, pulled.scale(math.prod(qs))))
    return SymbolChain(chain.model, chain.arity, terms)


def pullback_multivector(x: MultiVector, a: Sequence[Sequence[Fraction]]) -> MultiVector:
    """The pullback of a multivector along x -> Ax: each frame d_i of a
    wedge becomes sum_j B_ji d_j with B = A^-1, and each coefficient gamma
    becomes gamma o A."""
    b = inverse_matrix(a)
    terms = []
    for idx, coeff in x.terms.items():
        pulled = pullback_poly(coeff, a)
        for frames in itertools.product(range(1, x.model.n_total + 1), repeat=x.degree):
            q = math.prod(b[j - 1][i - 1] for i, j in zip(idx, frames))
            key, sign = sort_with_sign(x.model, x.degree, frames)
            if q and key:
                terms.append((key, pulled.scale(q * sign)))
    return MultiVector(x.model, x.degree, terms)


def pullback_field(x: VectorField, a: Sequence[Sequence[Fraction]]) -> VectorField:
    """The pullback of a vector field along x -> Ax: that of the degree-1
    multivector with the same components."""
    letters = range(1, x.model.n_total + 1)
    pulled = pullback_multivector(
        MultiVector(x.model, 1, [((i,), c) for i, c in zip(letters, x.components)]), a)
    return VectorField(x.model, [pulled.component((i,)) for i in letters])
