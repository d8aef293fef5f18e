"""Multivectors and tensor-of-symmetric symbol chains.

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

* one term-map core for multivectors and chains (storage, merge,
  arithmetic, equality, splitting, the ``--format table`` repr),
* the free algebra operations (wedge, vee, tensor concatenation),
* the reduced shuffle coproduct and the induced tensor differential,
* the antisymmetrisation map from multivectors to chains,
* membership of chains and multivectors, decided per monomial: the
  tagged subspaces by the rules of :mod:`conhoch.words` (re-exported
  here with the shuffle splittings and the unit differential), the
  hatted complement blocks by :func:`word_category`;
* the handlers of the commands that compute on one chain or
  multivector: classify-symbol, bigd and hkr.

The subspace tags live in :mod:`conhoch.model` (re-exported here), the
vector fields in :mod:`conhoch.fields`, and the degree-1 projections,
the canonical splittings of chains and the reduction of multivectors in
:mod:`conhoch.decompose`.  The CLI imports this module only in the
handlers that compute on symbols, so a command that classifies a
function or a vector field never compiles it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import UnsupportedTagError
from .model import FlatModel, SubspaceTag, _same_model
from .poly import Exponent, Poly
from .words import (Slots, Word, _slot_profile, _tensor_member, mv_monomial_member,
                    shuffle_pairs, unit_differential)

if TYPE_CHECKING:  # vector_field_as_multivector reads one without importing it
    from .fields import VectorField


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
# term maps: the shared core of multivectors and symbol chains
# ---------------------------------------------------------------------------


class _TermMap:
    """Map from basis keys to nonzero polynomial coefficients over one
    model, graded by the key length (the degree of a multivector, the
    arity of a chain).  The constructor checks each key with the
    subclass's ``_check_key``, merges repeated keys and drops zero
    coefficients; the repr is the ``--format table`` text."""

    __slots__ = ("model", "_grade", "terms")
    #: set by each subclass: the grade's name in a mismatch error, the
    #: error for a grade below 1, and the serialize encoder of the repr
    _grade_name = _too_low = _encoder = ""

    def __init__(self, model: FlatModel, grade: int, terms=()):
        if grade < 1:
            raise ValueError(self._too_low)
        clean: Dict[tuple, Poly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            key = self._check_key(model, grade, key)
            model.check_poly(coeff)
            if not coeff.is_zero():
                acc = clean.get(key)
                coeff = coeff if acc is None else acc + coeff
                if coeff.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = coeff
        self.model = model
        self._grade = grade
        self.terms = clean

    @classmethod
    def zero(cls, model: FlatModel, grade: int):
        return cls(model, grade, {})

    def _like(self, terms):
        return type(self)(self.model, self._grade, terms)

    def __add__(self, other):
        _same_model(self.model, other.model)
        if self._grade != other._grade:
            raise ValueError(f"{self._grade_name} mismatch")
        return self._like(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        return self._like({k: v * q for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> Iterator[Tuple[Exponent, tuple, Fraction]]:
        """Expand polynomial coefficients into monomial terms."""
        for key, coeff in self.terms.items():
            for exp, q in coeff.terms.items():
                yield exp, key, q

    def sorted_terms(self) -> List[Tuple[tuple, Poly]]:
        return sorted(self.terms.items())

    def split(self, test) -> tuple:
        """(part, rest): the monomial terms whose (exponent, key) pass
        the test, and the others; the two always sum to self."""
        parts: Tuple[list, list] = ([], [])
        for exp, key, q in self.monomials():
            parts[not test(exp, key)].append((key, Poly.monomial(exp, q)))
        return self._like(parts[0]), self._like(parts[1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self)) and self.model == other.model
                and self._grade == other._grade and self.terms == other.terms)

    def __repr__(self) -> str:
        from . import printer, serialize
        return printer.to_text(getattr(serialize, self._encoder)(self))


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------


class MultiVector(_TermMap):
    """Antisymmetric multivector field; keys are strictly increasing
    index tuples, values polynomial coefficients."""

    __slots__ = ()
    _grade_name = "degree"
    _too_low = "multivector degree must be at least 1"
    _encoder = "multivector_to_json"

    def __init__(self, model: FlatModel, degree: int,
                 terms: Mapping[Tuple[int, ...], Poly] = ()):
        super().__init__(model, degree, terms)

    @property
    def degree(self) -> int:
        return self._grade

    @staticmethod
    def _check_key(model: FlatModel, degree: int, idx) -> Tuple[int, ...]:
        idx = tuple(idx)
        if len(idx) != degree:
            raise ValueError(f"index tuple {idx} has wrong length")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        if not all(1 <= i <= model.n_total for i in idx):
            raise IndexError(f"index out of range in {idx}")
        return idx

    @classmethod
    def wedge_of_frames(cls, model: FlatModel, indices: Sequence[int],
                        coeff=1) -> "MultiVector":
        """coeff * d_{i1} ^ .. ^ d_{ik}; indices need not be sorted."""
        sorted_idx, sign = sort_with_sign(indices)
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
        if sorted_idx is None:
            return cls.zero(model, len(indices))
        return cls(model, len(indices), {sorted_idx: poly * sign})

    def component(self, indices: Sequence[int]) -> Poly:
        """Signed coefficient at an arbitrary index tuple."""
        sorted_idx, sign = sort_with_sign(indices)
        if sorted_idx is None:
            return Poly.zero(self.model.n_total)
        coeff = self.terms.get(sorted_idx)
        if coeff is None:
            return Poly.zero(self.model.n_total)
        return coeff * sign


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


class SymbolChain(_TermMap):
    """Element of the arity-graded tensor algebra of symmetric words."""

    __slots__ = ()
    _grade_name = "arity"
    _too_low = "arity must be at least 1"
    _encoder = "chain_to_json"

    def __init__(self, model: FlatModel, arity: int,
                 terms: Mapping[Slots, Poly] = ()):
        super().__init__(model, arity, terms)

    @property
    def arity(self) -> int:
        return self._grade

    @staticmethod
    def _check_key(model: FlatModel, arity: int, slots) -> Slots:
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
        return slots

    @classmethod
    def from_term(cls, model: FlatModel, slots: Sequence[Sequence[int]],
                  coeff=1) -> "SymbolChain":
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
        slots = tuple(tuple(sorted(w)) for w in slots)
        return cls(model, len(slots), {slots: poly})

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

    def coefficient(self, slots: Sequence[Sequence[int]]) -> Poly:
        key = tuple(tuple(w) for w in slots)
        return self.terms.get(key, Poly.zero(self.model.n_total))


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


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def word_category(model: FlatModel, word: Word) -> str:
    """Exactly one of: 'that' (contains a normal letter), 'nhat' (tangent
    letters with at least one distribution letter), 'wnhat' (letters all
    transverse-in-C)."""
    if any(i > model.n_wobs for i in word):
        return "that"
    if any(i <= model.n_null for i in word):
        return "nhat"
    return "wnhat"


#: the word categories of each hatted tag at arity 1
_HAT_WORDS = {SubspaceTag.NULL_NOT_VAN: ("nhat",), SubspaceTag.WOBS_NOT_NULL: ("wnhat",),
              SubspaceTag.TOTAL_NOT_WOBS: ("that",),
              SubspaceTag.TOTAL_NOT_NULL: ("that", "wnhat")}


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
        return t == 0 and word_category(model, slots[0]) in _HAT_WORDS[tag]
    if arity == 2 and tag in (SubspaceTag.NULL_NOT_VAN, SubspaceTag.TOTAL_NOT_WOBS):
        if t != 0:
            return False
        cats = [word_category(model, w) for w in slots]
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


def mv_membership(x: MultiVector, tag: SubspaceTag) -> bool:
    """Constraint membership of a multivector, decided per monomial (both
    tagged classes are monomially spanned)."""
    return all(mv_monomial_member(x.model, gamma, idx, tag)
               for gamma, idx, _ in x.monomials())


# ---------------------------------------------------------------------------
# handlers of the commands that compute on one chain or multivector
# ---------------------------------------------------------------------------


def cmd_classify_symbol(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    if args.tag is not None:
        tag = SubspaceTag(args.tag)
        return {"tag": tag.value, "member": chain_membership(chain, tag)}
    return {"wobs": chain_membership(chain, SubspaceTag.WOBS),
            "null": chain_membership(chain, SubspaceTag.NULL)}


def cmd_bigd(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    return serialize.chain_to_json(differential_d(chain))


def cmd_hkr(model, args) -> dict:
    from . import serialize
    x = serialize.multivector_from_json(serialize._load(args.infile), model)
    return serialize.chain_to_json(hkr(x))
