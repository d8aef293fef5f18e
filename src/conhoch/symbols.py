"""Vector fields, multivectors and tensor-of-symmetric symbol chains.

The central object is the :class:`SymbolChain`: an element of the tensor
algebra (graded by tensor factors) over the reduced symmetric algebra of
coordinate vector fields, with polynomial coefficients.  A chain of
arity n is stored as a map

    (word_1, .., word_n)  ->  Poly

where each word is a sorted tuple of 1-based coordinate indices with
repetition (a basis element of the symmetric algebra, e.g. (1, 1, 3)
stands for d1 v d1 v d3) and every word is nonempty.  Because the word
letters are the constant coordinate frame fields, every chain is a
rational-polynomial combination of monomial chains, and all subspace
membership questions below reduce to combinatorial checks per monomial.

This module provides

* the free algebra operations (wedge, vee, tensor concatenation),
* the reduced shuffle coproduct and the induced tensor differential,
* the (anti)symmetrisation map from multivectors to chains and the
  degree-(1,1) projection back,
* membership tests for every constraint subspace used by the cohomology
  computation, decided per monomial from the block structure of the
  flat model,
* the canonical flat-model splitting of chains into an observable-span
  part and a part built from prolonged normal directions.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (InvariantError, ModelMismatchError, NotWobsError,
                     UnsupportedTagError)
from .model import FlatModel
from .poly import Exponent, Poly

Word = Tuple[int, ...]
Slots = Tuple[Word, ...]


class SubspaceTag(enum.Enum):
    """Constraint subspaces of the symbol algebra.

    WOBS and NULL are defined at every arity.  The remaining four tags
    name the complement blocks built from sections over C of the three
    coordinate blocks; they exist at arity 1, and NULL_NOT_VAN /
    TOTAL_NOT_WOBS additionally at arity 2.
    """

    WOBS = "wobs"
    NULL = "null"
    NULL_NOT_VAN = "null_not_van"
    WOBS_NOT_NULL = "wobs_not_null"
    TOTAL_NOT_WOBS = "total_not_wobs"
    TOTAL_NOT_NULL = "total_not_null"


def vee(a: Word, b: Word) -> Word:
    """Symmetric product of basis words: merge the letter multisets."""
    return tuple(sorted(a + b))


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def sort_with_sign(indices: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sort wedge indices; returns (sorted tuple, sign), or (None, 0) when
    an index repeats (the wedge vanishes)."""
    if len(set(indices)) != len(indices):
        return None, 0
    order = sorted(range(len(indices)), key=lambda k: indices[k])
    return tuple(indices[k] for k in order), _perm_sign(order)


# ---------------------------------------------------------------------------
# vector fields and multivectors
# ---------------------------------------------------------------------------


class VectorField:
    """Vector field with polynomial components (component i multiplies d_i)."""

    __slots__ = ("model", "components")

    def __init__(self, model: FlatModel, components: Sequence[Poly]):
        if len(components) != model.n_total:
            raise ValueError("need one component per coordinate")
        for f in components:
            model.check_poly(f)
        self.model = model
        self.components = tuple(components)

    @classmethod
    def zero(cls, model: FlatModel) -> "VectorField":
        return cls(model, [Poly.zero(model.n_total)] * model.n_total)

    @classmethod
    def frame(cls, model: FlatModel, index: int, coeff: Optional[Poly] = None) -> "VectorField":
        """coeff * d_index (1-based); coeff defaults to 1."""
        comps = [Poly.zero(model.n_total) for _ in range(model.n_total)]
        comps[index - 1] = Poly.constant(model.n_total, 1) if coeff is None else coeff
        return cls(model, comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_model(self.model, other.model)
        return VectorField(self.model, [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.model, [-a for a in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, f) -> "VectorField":
        return VectorField(self.model, [a * f for a in self.components])

    def apply(self, f: Poly) -> Poly:
        """Derivative of a function along the field."""
        out = Poly.zero(self.model.n_total)
        for i, comp in enumerate(self.components, start=1):
            if not comp.is_zero():
                out = out + comp * f.partial(i)
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField) and self.model == other.model
                and self.components == other.components)

    def __repr__(self) -> str:
        parts = [f"({c})*d{i}" for i, c in enumerate(self.components, 1) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y] of two vector fields."""
    _same_model(x.model, y.model)
    n = x.model.n_total
    comps = []
    for j in range(1, n + 1):
        term = Poly.zero(n)
        for i in range(1, n + 1):
            if not x.components[i - 1].is_zero():
                term = term + x.components[i - 1] * y.components[j - 1].partial(i)
            if not y.components[i - 1].is_zero():
                term = term - y.components[i - 1] * x.components[j - 1].partial(i)
        comps.append(term)
    return VectorField(x.model, comps)


class MultiVector:
    """Antisymmetric multivector field; keys are strictly increasing
    index tuples, values polynomial coefficients."""

    __slots__ = ("model", "degree", "terms")

    def __init__(self, model: FlatModel, degree: int,
                 terms: Mapping[Tuple[int, ...], Poly] = ()):
        if degree < 1:
            raise ValueError("multivector degree must be at least 1")
        clean: Dict[Tuple[int, ...], Poly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for idx, coeff in items:
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"indices must be strictly increasing, got {idx}")
            if not all(1 <= i <= model.n_total for i in idx):
                raise IndexError(f"index out of range in {idx}")
            model.check_poly(coeff)
            if not coeff.is_zero():
                acc = clean.get(idx)
                coeff = coeff if acc is None else acc + coeff
                if coeff.is_zero():
                    clean.pop(idx, None)
                else:
                    clean[idx] = coeff
        self.model = model
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, model: FlatModel, degree: int) -> "MultiVector":
        return cls(model, degree, {})

    @classmethod
    def wedge_of_frames(cls, model: FlatModel, indices: Sequence[int],
                        coeff=1) -> "MultiVector":
        """coeff * d_{i1} ^ .. ^ d_{ik}; indices need not be sorted."""
        sorted_idx, sign = sort_with_sign(indices)
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
        if sorted_idx is None:
            return cls.zero(model, len(indices))
        return cls(model, len(indices), {sorted_idx: poly * sign})

    def __add__(self, other: "MultiVector") -> "MultiVector":
        _same_model(self.model, other.model)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        terms = dict(self.terms)
        merged = list(terms.items()) + list(other.terms.items())
        return MultiVector(self.model, self.degree, merged)

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.model, self.degree,
                           {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def scale(self, q) -> "MultiVector":
        return MultiVector(self.model, self.degree,
                           {k: v * q for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, indices: Sequence[int]) -> Poly:
        """Signed coefficient at an arbitrary index tuple."""
        sorted_idx, sign = sort_with_sign(indices)
        if sorted_idx is None:
            return Poly.zero(self.model.n_total)
        coeff = self.terms.get(sorted_idx)
        if coeff is None:
            return Poly.zero(self.model.n_total)
        return coeff * sign

    def monomials(self) -> Iterator[Tuple[Exponent, Tuple[int, ...], Fraction]]:
        for idx, coeff in self.terms.items():
            for exp, q in coeff.terms.items():
                yield exp, idx, q

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiVector) and self.model == other.model
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self) -> str:
        parts = [f"({c})*d{'^d'.join(map(str, idx))}" for idx, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Wedge product of multivectors."""
    _same_model(a.model, b.model)
    out = MultiVector.zero(a.model, a.degree + b.degree)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            out = out + MultiVector.wedge_of_frames(a.model, ia + ib, ca * cb)
    return out


def vector_field_as_multivector(x: VectorField) -> MultiVector:
    terms = {}
    for i, comp in enumerate(x.components, start=1):
        if not comp.is_zero():
            terms[(i,)] = comp
    return MultiVector(x.model, 1, terms)


# ---------------------------------------------------------------------------
# symbol chains
# ---------------------------------------------------------------------------


class SymbolChain:
    """Element of the arity-graded tensor algebra of symmetric words."""

    __slots__ = ("model", "arity", "terms")

    def __init__(self, model: FlatModel, arity: int,
                 terms: Mapping[Slots, Poly] = ()):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        clean: Dict[Slots, Poly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for slots, coeff in items:
            slots = tuple(tuple(w) for w in slots)
            if len(slots) != arity:
                raise ValueError(f"term {slots} has wrong arity")
            for w in slots:
                if len(w) < 1:
                    raise ValueError("every slot needs symmetric degree >= 1")
                if list(w) != sorted(w):
                    raise ValueError(f"slot word {w} is not sorted")
                if not all(1 <= i <= model.n_total for i in w):
                    raise IndexError(f"letter out of range in {w}")
            model.check_poly(coeff)
            if not coeff.is_zero():
                acc = clean.get(slots)
                coeff = coeff if acc is None else acc + coeff
                if coeff.is_zero():
                    clean.pop(slots, None)
                else:
                    clean[slots] = coeff
        self.model = model
        self.arity = arity
        self.terms = clean

    @classmethod
    def zero(cls, model: FlatModel, arity: int) -> "SymbolChain":
        return cls(model, arity, {})

    @classmethod
    def from_term(cls, model: FlatModel, slots: Sequence[Sequence[int]],
                  coeff=1) -> "SymbolChain":
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
        slots = tuple(tuple(sorted(w)) for w in slots)
        return cls(model, len(slots), {slots: poly})

    def __add__(self, other: "SymbolChain") -> "SymbolChain":
        _same_model(self.model, other.model)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        merged = list(self.terms.items()) + list(other.terms.items())
        return SymbolChain(self.model, self.arity, merged)

    def __neg__(self) -> "SymbolChain":
        return SymbolChain(self.model, self.arity,
                           {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SymbolChain") -> "SymbolChain":
        return self + (-other)

    def scale(self, q) -> "SymbolChain":
        return SymbolChain(self.model, self.arity,
                           {k: v * q for k, v in self.terms.items()})

    def tensor(self, other: "SymbolChain") -> "SymbolChain":
        """Concatenation of tensor slots (coefficients multiply)."""
        _same_model(self.model, other.model)
        terms = []
        for sa, ca in self.terms.items():
            for sb, cb in other.terms.items():
                terms.append((sa + sb, ca * cb))
        return SymbolChain(self.model, self.arity + other.arity, terms)

    def transpose(self) -> "SymbolChain":
        """Swap the two slots of an arity-2 chain."""
        if self.arity != 2:
            raise ValueError("transpose is defined for arity 2")
        return SymbolChain(self.model, 2,
                           {(b, a): c for (a, b), c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def sym_degree_part(self, k: int) -> "SymbolChain":
        """Part of total symmetric degree k (sum of slot lengths)."""
        return SymbolChain(self.model, self.arity,
                           {s: c for s, c in self.terms.items()
                            if sum(len(w) for w in s) == k})

    def sym_degrees(self) -> List[int]:
        return sorted({sum(len(w) for w in s) for s in self.terms})

    def max_total_order(self) -> int:
        return max((sum(len(w) for w in s) for s in self.terms), default=0)

    def max_coeff_degree(self) -> int:
        return max((c.total_degree() for c in self.terms.values()), default=0)

    def monomials(self) -> Iterator[Tuple[Exponent, Slots, Fraction]]:
        """Expand polynomial coefficients into monomial terms."""
        for slots, coeff in self.terms.items():
            for exp, q in coeff.terms.items():
                yield exp, slots, q

    def coefficient(self, slots: Sequence[Sequence[int]]) -> Poly:
        key = tuple(tuple(w) for w in slots)
        return self.terms.get(key, Poly.zero(self.model.n_total))

    def sorted_terms(self) -> List[Tuple[Slots, Poly]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolChain) and self.model == other.model
                and self.arity == other.arity and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for slots, coeff in self.sorted_terms():
            word_str = "(x)".join("v".join(f"d{i}" for i in w) for w in slots)
            parts.append(f"({coeff})*{word_str}")
        return " + ".join(parts)


def _same_model(a: FlatModel, b: FlatModel) -> None:
    if a != b:
        raise ModelMismatchError(f"objects over different models {a} and {b}")


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


# ---------------------------------------------------------------------------
# coproduct, differential, (anti)symmetrisation
# ---------------------------------------------------------------------------


def shuffle_pairs(word: Word) -> Iterator[Tuple[Word, Word]]:
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


@lru_cache(maxsize=None)
def _word_splits(word: Word) -> Tuple[Tuple[Word, Word, int], ...]:
    """The distinct (left, right) splittings of a word with their shuffle
    multiplicities."""
    counts: Dict[Tuple[Word, Word], int] = {}
    for pair in shuffle_pairs(word):
        counts[pair] = counts.get(pair, 0) + 1
    return tuple((left, right, n) for (left, right), n in counts.items())


def unit_differential(slots: Slots) -> Dict[Slots, int]:
    """The differential of the monomial chain with these slot words and
    unit coefficient, as integer coefficients keyed by image slot tuples.
    Splitting slot i (1-based) gives a shorter word at position i than
    splitting any later slot, so no two splittings share a key and no
    entry cancels."""
    out: Dict[Slots, int] = {}
    for i, word in enumerate(slots):
        sign = 1 if i % 2 else -1  # (-1)^i for the 1-based slot i + 1
        head, tail = slots[:i], slots[i + 1:]
        for left, right, n in _word_splits(word):
            out[head + (left, right) + tail] = sign * n
    return out


def differential_d(chain: SymbolChain) -> SymbolChain:
    """The tensor differential: alternating sum over slots of the reduced
    shuffle coproduct, with sign (-1)^i at slot i (1-based).  Raises the
    arity by one and preserves total symmetric degree and coefficients."""
    out_terms: List[Tuple[Slots, Poly]] = []
    for slots, coeff in chain.terms.items():
        for image, n in unit_differential(slots).items():
            out_terms.append((image, coeff * n))
    return SymbolChain(chain.model, chain.arity + 1, out_terms)


def hkr(x: MultiVector) -> SymbolChain:
    """Total antisymmetrisation of a multivector into a chain whose slots
    all have symmetric degree one, normalised by 1/n!.  The image is
    closed under the tensor differential."""
    n = x.degree
    factor = Fraction(1, math.factorial(n))
    terms: List[Tuple[Slots, Poly]] = []
    for idx, coeff in x.terms.items():
        for perm in itertools.permutations(range(n)):
            sign = _perm_sign(perm)
            slots = tuple((idx[p],) for p in perm)
            terms.append((slots, coeff * (factor * sign)))
    return SymbolChain(x.model, n, terms)


def pr1(chain: SymbolChain) -> SymbolChain:
    """Projection of an arity-1 chain onto symmetric degree 1."""
    if chain.arity != 1:
        raise ValueError("pr1 acts on arity-1 chains")
    return chain.sym_degree_part(1)


def pr1_top(chain: SymbolChain) -> MultiVector:
    """Wedge of the slotwise degree-1 projections of an arity-2 chain:
    keeps only terms whose both slots have symmetric degree one and
    antisymmetrises them into a bivector."""
    if chain.arity != 2:
        raise ValueError("pr1_top acts on arity-2 chains")
    out = MultiVector.zero(chain.model, 2)
    for (w1, w2), coeff in chain.terms.items():
        if len(w1) == 1 and len(w2) == 1:
            out = out + MultiVector.wedge_of_frames(chain.model, (w1[0], w2[0]), coeff)
    return out


# ---------------------------------------------------------------------------
# membership engine
#
# Every constraint subspace occurring here is spanned by monomial chains
# (coefficient monomial times a tuple of frame words), so membership of an
# arbitrary element is decided monomial by monomial.  The observable and
# null classes are the exact monomial characterisations of the defining
# operator-level conditions (observable arguments map to observables, and
# to nulls once one argument is null): worst-case argument analysis shows
# that a monomial operator is null precisely when its coefficient carries
# a normal variable or some slot word mixes distribution letters with no
# normal letter (such a slot annihilates every observable argument into
# the null class), and observable when additionally a coefficient free of
# distribution variables together with normal-letter-free words qualifies.
# The analysis is cross-checked against the sampled functional oracle in
# the test suite.
# ---------------------------------------------------------------------------


def _slot_profile(model: FlatModel, word: Word) -> Tuple[int, int, int]:
    """Letter counts of a word by block: (d, dperp, tcperp)."""
    nd = sum(1 for i in word if i <= model.n_null)
    nt = sum(1 for i in word if i > model.n_wobs)
    return nd, len(word) - nd - nt, nt


def _word_wobs_ok(t: int, d: int, nd: int, np_: int, nt: int) -> bool:
    """Can a coefficient with t normal-variable units and d distribution
    units be split over a word with letter profile (nd, np_, nt) so that
    every letter carries an observable field?  Each normal letter needs
    its own normal unit; distribution units need a sink letter that
    tolerates them (a distribution letter, a normal letter, or a
    transverse letter that received a spare normal unit)."""
    if t < nt:
        return False
    if d == 0 or nd >= 1 or nt >= 1:
        return True
    return np_ >= 1 and t >= nt + 1


def _tensor_member(d_units: int, t_units: int,
                   profiles: Tuple[Tuple[int, int, int], ...],
                   tag: "SubspaceTag") -> bool:
    """Membership of a monomial chain with coefficient unit counts
    (d_units, t_units) and the given slot letter profiles.

    Null: the coefficient vanishes on C (a normal variable unit), or some
    slot word contains a distribution letter and no normal letter - the
    derivative along such a slot sends every observable argument into
    the null class.  Observable: additionally, a coefficient without
    distribution variables combined with normal-letter-free slot words.
    """
    null = t_units >= 1 or any(nd >= 1 and nt == 0 for nd, _, nt in profiles)
    if tag is SubspaceTag.NULL:
        return null
    return null or (d_units == 0 and all(nt == 0 for _, _, nt in profiles))


def _word_category(model: FlatModel, word: Word) -> str:
    """Exactly one of: 'that' (contains a normal letter), 'nhat' (tangent
    letters with at least one distribution letter), 'wnhat' (letters all
    transverse-in-C)."""
    if any(i > model.n_wobs for i in word):
        return "that"
    if any(i <= model.n_null for i in word):
        return "nhat"
    return "wnhat"


def monomial_member(model: FlatModel, gamma: Exponent, slots: Slots,
                    tag: SubspaceTag) -> bool:
    """Membership of a single monomial chain (coefficient exponent gamma,
    slot words) in the tagged subspace."""
    d, _, t = model.unit_counts(gamma)
    if tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
        profiles = tuple(_slot_profile(model, w) for w in slots)
        return _tensor_member(d, t, profiles, tag)
    # hatted tags: sections over C only, so no normal variables at all
    arity = len(slots)
    if arity == 1:
        if t != 0:
            return False
        cat = _word_category(model, slots[0])
        if tag is SubspaceTag.NULL_NOT_VAN:
            return cat == "nhat"
        if tag is SubspaceTag.WOBS_NOT_NULL:
            return cat == "wnhat"
        if tag is SubspaceTag.TOTAL_NOT_WOBS:
            return cat == "that"
        if tag is SubspaceTag.TOTAL_NOT_NULL:
            return cat in ("that", "wnhat")
    if arity == 2 and tag in (SubspaceTag.NULL_NOT_VAN, SubspaceTag.TOTAL_NOT_WOBS):
        if t != 0:
            return False
        cats = [_word_category(model, w) for w in slots]
        if tag is SubspaceTag.TOTAL_NOT_WOBS:
            return all(c in ("that", "wnhat") for c in cats) and "that" in cats
        return "nhat" in cats
    raise UnsupportedTagError(f"tag {tag.value} is not defined at arity {arity}")


def chain_membership(chain: SymbolChain, tag: SubspaceTag) -> bool:
    """Decide membership of a chain in the tagged subspace.  The tagged
    spaces are spanned by monomial chains, so the test runs monomial by
    monomial.  Hatted tags are only defined at arity 1 (all four) and
    arity 2 (NULL_NOT_VAN, TOTAL_NOT_WOBS)."""
    return all(monomial_member(chain.model, gamma, slots, tag)
               for gamma, slots, _ in chain.monomials())


def in_function_span_wobs(chain: SymbolChain) -> bool:
    """Membership in the span of observable chains with arbitrary smooth
    (polynomial) prefactors: the observable condition with the
    distribution-variable restriction on the coefficient waived (the
    prefactor absorbs those variables), so each monomial is tested as if
    its coefficient had no distribution units.  Together with the prolonged
    normal block this space decomposes the whole slice, monomial by
    monomial."""
    model = chain.model
    return all(_tensor_member(0, model.unit_counts(gamma)[2],
                              tuple(_slot_profile(model, w) for w in slots),
                              SubspaceTag.WOBS)
               for gamma, slots, _ in chain.monomials())


def vf_membership(x: VectorField, tag: SubspaceTag) -> bool:
    """Constraint membership of a vector field.

    Null: the components transverse to the distribution vanish on C.
    Wobs: the components normal to C vanish on C, and the derivative of
    every non-distribution component along the distribution frame
    vanishes on C (the bracket condition tested against the frame, which
    generates the distribution sections as a module).
    """
    model = x.model
    if tag is SubspaceTag.NULL:
        return all(model.restrict_to_c(x.components[i - 1]).is_zero()
                   for i in range(model.n_null + 1, model.n_total + 1))
    if tag is SubspaceTag.WOBS:
        for i in model.tcperp_indices:
            if not model.restrict_to_c(x.components[i - 1]).is_zero():
                return False
        for a in model.d_indices:
            for i in range(model.n_null + 1, model.n_total + 1):
                if not model.restrict_to_c(x.components[i - 1].partial(a)).is_zero():
                    return False
        return True
    raise UnsupportedTagError(f"vector fields carry only wobs/null tags, not {tag.value}")


def mv_monomial_member(model: FlatModel, gamma: Exponent,
                       idx: Tuple[int, ...], tag: SubspaceTag) -> bool:
    """Membership of a single monomial multivector term in the tagged
    class.  The null multivectors are wedges of arbitrary fields with
    one null factor, so a monomial qualifies when a distribution letter
    is present or the coefficient carries a normal variable; the
    observable ones additionally admit wedges of observable fields."""
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise UnsupportedTagError(f"multivectors carry only wobs/null tags, not {tag.value}")
    d, _, t = model.unit_counts(gamma)
    nd, np_, nt = _slot_profile(model, idx)
    null_route = nd >= 1 or t >= 1
    if tag is SubspaceTag.NULL:
        return null_route
    return null_route or _word_wobs_ok(t, d, nd, np_, nt)


def mv_membership(x: MultiVector, tag: SubspaceTag) -> bool:
    """Constraint membership of a multivector, decided per monomial (both
    tagged classes are monomially spanned)."""
    return all(mv_monomial_member(x.model, gamma, idx, tag)
               for gamma, idx, _ in x.monomials())


# ---------------------------------------------------------------------------
# canonical flat-model decompositions
# ---------------------------------------------------------------------------


def decompose_sym(chain: SymbolChain) -> Tuple[SymbolChain, SymbolChain]:
    """Split an arity-1 chain into (observable-span part, prolonged-normal
    part).  A monomial goes to the second component exactly when its
    word contains a normal letter while its coefficient is a function on
    C (no normal variables); everything else goes to the first.  The
    split is exact: the two parts always sum back to the input."""
    if chain.arity != 1:
        raise ValueError("decompose_sym acts on arity-1 chains")
    model = chain.model
    w_terms: List[Tuple[Slots, Poly]] = []
    t_terms: List[Tuple[Slots, Poly]] = []
    for gamma, slots, q in chain.monomials():
        _, _, t_units = model.unit_counts(gamma)
        has_normal_letter = any(i > model.n_wobs for i in slots[0])
        target = t_terms if (has_normal_letter and t_units == 0) else w_terms
        target.append((slots, Poly.monomial(gamma, q)))
    return (SymbolChain(model, 1, w_terms), SymbolChain(model, 1, t_terms))


class Tensor2Decomposition(NamedTuple):
    """Canonical splitting of an arity-2 chain.

    ``function_wobs_part`` + ``total_not_wobs_part`` always rebuild the
    input.  For null inputs, ``vanishing_part`` + ``null_not_van_part``
    rebuild it as well; otherwise those two are None.
    """

    function_wobs_part: SymbolChain
    total_not_wobs_part: SymbolChain
    vanishing_part: Optional[SymbolChain]
    null_not_van_part: Optional[SymbolChain]


def decompose_tensor2(chain: SymbolChain) -> Tensor2Decomposition:
    """Split an arity-2 chain along the flat-model block structure: the
    complement component collects monomials with C-coefficients whose
    slot words avoid distribution letters with at least one normal
    letter.  For null inputs, additionally split off the part whose
    coefficients vanish on C; the remainder then lies in the null
    complement block (checked)."""
    if chain.arity != 2:
        raise ValueError("decompose_tensor2 acts on arity-2 chains")
    model = chain.model
    fw: List[Tuple[Slots, Poly]] = []
    tnw: List[Tuple[Slots, Poly]] = []
    for gamma, slots, q in chain.monomials():
        _, _, t_units = model.unit_counts(gamma)
        cats = [_word_category(model, w) for w in slots]
        is_that = (t_units == 0 and all(c in ("that", "wnhat") for c in cats)
                   and "that" in cats)
        (tnw if is_that else fw).append((slots, Poly.monomial(gamma, q)))
    fw_chain = SymbolChain(model, 2, fw)
    tnw_chain = SymbolChain(model, 2, tnw)
    if not chain_membership(tnw_chain, SubspaceTag.TOTAL_NOT_WOBS):
        raise InvariantError("decompose_tensor2: the complement part "
                             f"{tnw_chain!r} is not in the total_not_wobs block")

    van_chain = nnv_chain = None
    if chain_membership(chain, SubspaceTag.NULL):
        van: List[Tuple[Slots, Poly]] = []
        nnv: List[Tuple[Slots, Poly]] = []
        for gamma, slots, q in chain.monomials():
            _, _, t_units = model.unit_counts(gamma)
            (van if t_units >= 1 else nnv).append((slots, Poly.monomial(gamma, q)))
        van_chain = SymbolChain(model, 2, van)
        nnv_chain = SymbolChain(model, 2, nnv)
        # for genuine null chains the C-coefficient remainder lies in the
        # null complement block; anything else would contradict nullness
        if not chain_membership(nnv_chain, SubspaceTag.NULL_NOT_VAN):
            raise InvariantError("decompose_tensor2: the C-coefficient part "
                                 f"{nnv_chain!r} of a null chain is not in the "
                                 "null_not_van block")
    return Tensor2Decomposition(fw_chain, tnw_chain, van_chain, nnv_chain)


def reduce_multivector(x: MultiVector, tag: SubspaceTag = SubspaceTag.WOBS) -> MultiVector:
    """Image of an observable multivector on the reduced model: restrict
    the coefficients to C, drop every term touching a distribution or
    normal direction, and reindex to the reduced coordinates."""
    if tag is not SubspaceTag.WOBS:
        raise UnsupportedTagError("reduction is defined on the observable class")
    if not mv_membership(x, SubspaceTag.WOBS):
        raise NotWobsError("multivector is not observable")
    model = x.model
    reduced = model.reduced_model()
    terms: List[Tuple[Tuple[int, ...], Poly]] = []
    for idx, coeff in x.terms.items():
        if any(i <= model.n_null or i > model.n_wobs for i in idx):
            continue
        restricted = model.restrict_to_c(coeff)
        if restricted.is_zero():
            continue
        new_terms = {}
        for exp, q in restricted.terms.items():
            # observability forces the surviving coefficients to be
            # constant along the distribution on C
            if any(exp[: model.n_null]):
                raise InvariantError(
                    f"reduce_multivector: the {idx} coefficient of an observable "
                    f"multivector restricted to C depends on a distribution variable: {exp}")
            new = exp[model.n_null : model.n_wobs]
            new = new + (0,) * (reduced.n_total - len(new))
            new_terms[new] = q
        new_idx = tuple(i - model.n_null for i in idx)
        terms.append((new_idx, Poly(reduced.n_total, new_terms)))
    return MultiVector(reduced, x.degree, terms)
