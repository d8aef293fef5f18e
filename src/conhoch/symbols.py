"""Tensor-of-symmetric symbol chains: the chain calculus.

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

* one base for multivectors and chains (checked storage, the trusted
  ``_like``, the frame check, splitting; the arithmetic comes from
  ``poly._Linear``, equality, the read-only ``terms`` and the
  ``--format table`` repr from ``poly._Frozen``), and chain lookups
  that sort and check a key as the constructor does,
* the symmetric product of words,
* the tensor differential, built from the unit differential of
  :mod:`conhoch.words`,
* membership of chains, decided per monomial by the one rule of
  :mod:`conhoch.model`: the wobs and null subspaces by
  ``_monomial_rule``, each hatted complement block by the windows of
  ``_member`` its slot words pass or fail (the table ``_HATTED``, which
  also gives the arities where the tag is defined);
* the handlers of the commands that compute on one chain: classify-symbol
  and bigd.

The subspace tags live in :mod:`conhoch.model` (re-exported here), the
multivectors, :func:`~conhoch.multivector.hkr` and multivector
membership in :mod:`conhoch.multivector` (``MultiVector`` and ``hkr``
still resolve here, on first access, without this module importing
that one), the vector fields in :mod:`conhoch.fields`, and the degree-1
projections, the canonical splittings of chains and the reduction of
multivectors in :mod:`conhoch.decompose`.  The CLI imports this module
only in the handlers that compute on symbols, so a command that
classifies a function or a vector field never compiles it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from .errors import UnsupportedTagError
from .model import (FlatModel, SubspaceTag, _check_int, _member, _monomial_rule, _same_model,
                    _slot_profile)
from .poly import Exponent, Poly, _Linear, merge_terms
from .words import Slots, Word, unit_differential

if TYPE_CHECKING:  # only annotations name it here
    from fractions import Fraction


def vee(a: Word, b: Word) -> Word:
    """Symmetric product of basis words: merge the letter multisets."""
    return tuple(sorted(a + b))


# ---------------------------------------------------------------------------
# term maps: the shared core of multivectors and symbol chains
# ---------------------------------------------------------------------------


class _TermMap(_Linear):
    """Map from basis keys to nonzero polynomial coefficients over one
    model, graded by the key length (the degree of a multivector, the
    arity of a chain).  The constructor checks each key with the
    subclass's ``_check_key`` and each coefficient's model, then merges
    repeated keys and drops zero coefficients; the repr is the
    ``--format table`` text."""

    __slots__ = _fields = ("model", "_grade", "terms")
    #: set by each subclass: the grade's name in a mismatch error and the
    #: error for a grade below 1
    _grade_name = _too_low = ""

    def __init__(self, model: FlatModel, grade: int, terms=()):
        _check_int(grade, self._grade_name)
        if grade < 1:
            raise ValueError(self._too_low)
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for key, coeff in items:
            model.check_poly(coeff)
            checked.append((self._check_key(model, grade, key), coeff))
        self._set(model, grade, merge_terms(checked))

    @classmethod
    def zero(cls, model: FlatModel, grade: int):
        return cls(model, grade, {})

    def _like(self, terms: dict, grade: int = 0):
        """A term map of this class, model and grade (unless another is
        given) owning canonical terms; nothing is checked again."""
        new = object.__new__(type(self))
        new._set(self.model, grade or self._grade, terms)
        return new

    def _check_frame(self, other) -> None:
        _same_model(self.model, other.model)
        if self._grade != other._grade:
            raise ValueError(f"{self._grade_name} mismatch")

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
            parts[not test(exp, key)].append((key, Poly._trusted(self.model.n_total, {exp: q})))
        return self._like(merge_terms(parts[0])), self._like(merge_terms(parts[1]))


# ---------------------------------------------------------------------------
# symbol chains
# ---------------------------------------------------------------------------


class SymbolChain(_TermMap):
    """Element of the arity-graded tensor algebra of symmetric words."""

    __slots__ = ()
    _grade_name = "arity"
    _too_low = "arity must be at least 1"
    _encoder = "chain_to_json"

    @property
    def arity(self) -> int:
        return self._grade

    @staticmethod
    def _check_key(model: FlatModel, arity: int, slots) -> Slots:
        slots = tuple(tuple(w) for w in slots)
        if len(slots) != arity:
            raise ValueError(f"term {slots} has wrong arity")
        for w in slots:
            if not all(type(i) is int for i in w):
                raise ValueError(f"slot word {w} needs int letters")
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

    def transpose(self) -> "SymbolChain":
        """Swap the two slots of an arity-2 chain."""
        if self.arity != 2:
            raise ValueError("transpose is defined for arity 2")
        return self._like({(b, a): c for (a, b), c in self.terms.items()})

    def sym_degree_part(self, k: int) -> "SymbolChain":
        """Part of total symmetric degree k (sum of slot lengths)."""
        return self._like({s: c for s, c in self.terms.items()
                           if sum(len(w) for w in s) == k})

    def coefficient(self, slots: Sequence[Sequence[int]]) -> Poly:
        """The coefficient at the slot words, each sorted and the whole
        checked as the constructor checks a key."""
        key = self._check_key(self.model, self.arity, [sorted(w) for w in slots])
        return self.terms.get(key, Poly.zero(self.model.n_total))


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def differential_d(chain: SymbolChain) -> SymbolChain:
    """The tensor differential: alternating sum over slots of the reduced
    shuffle coproduct, with sign (-1)^i at slot i (1-based).  Raises the
    arity by one and preserves total symmetric degree and coefficients."""
    return chain._like(merge_terms(
        (image, coeff * n) for slots, coeff in chain.terms.items()
        for image, n in unit_differential(slots).items()), chain.arity + 1)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


#: each hatted tag's highest arity and the window tests of its slot words
#: at a coefficient with no normal unit: (kind, whether they pass it)
_HATTED = {SubspaceTag.NULL_NOT_VAN: (2, (("null", True),)),
           SubspaceTag.TOTAL_NOT_WOBS: (2, (("wobs", False),)),
           SubspaceTag.TOTAL_NOT_NULL: (1, (("null", False),)),
           SubspaceTag.WOBS_NOT_NULL: (1, (("wobs", True), ("null", False)))}


def _check_tag_arity(tag: SubspaceTag, arity: int) -> None:
    """Refuse anything that is not a SubspaceTag, and a hatted tag outside
    arity 1 up to its highest arity in :data:`_HATTED`."""
    if not isinstance(tag, SubspaceTag):
        raise UnsupportedTagError(f"{tag!r} is not a subspace tag")
    if tag in _HATTED and not 1 <= arity <= _HATTED[tag][0]:
        raise UnsupportedTagError(f"tag {tag.value} is not defined at arity {arity}")


def monomial_member(model: FlatModel, gamma: Exponent, slots: Slots,
                    tag: SubspaceTag) -> bool:
    """Membership of a single monomial chain (coefficient exponent gamma,
    slot words) in the tagged subspace."""
    if tag in (SubspaceTag.WOBS, SubspaceTag.NULL):
        return _monomial_rule(model, tag.value, gamma, slots)
    # hatted tags: sections over C only, so no normal variables at all;
    # the slot words pass or fail fixed windows of the one rule
    _check_tag_arity(tag, len(slots))
    if model.unit_counts(gamma)[2]:
        return False
    profiles = [_slot_profile(model, w) for w in slots]
    for kind, want in _HATTED[tag][1]:
        if _member(kind, profiles) is not want:
            return False
    return True


def chain_membership(chain: SymbolChain, tag: SubspaceTag) -> bool:
    """Decide membership of a chain in the tagged subspace.  The tagged
    spaces are spanned by monomial chains, so the test runs monomial by
    monomial.  A hatted tag is only defined from arity 1 up to its
    highest arity in ``_HATTED`` (2 for NULL_NOT_VAN and TOTAL_NOT_WOBS,
    1 for the others); elsewhere it, and anything that is not a
    SubspaceTag, raises UnsupportedTagError, for the zero chain too."""
    _check_tag_arity(tag, chain.arity)
    return all(monomial_member(chain.model, gamma, slots, tag)
               for gamma, slots, _ in chain.monomials())


# ---------------------------------------------------------------------------
# handlers of the commands that compute on one chain
# ---------------------------------------------------------------------------


def cmd_classify_symbol(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    if args.tag is not None:
        tag = SubspaceTag(args.tag)
        return {"tag": tag.value, "member": chain_membership(chain, tag)}
    return {"wobs": chain_membership(chain, SubspaceTag.WOBS),
            "null": chain_membership(chain, SubspaceTag.NULL)}


def cmd_bigd(model, args) -> SymbolChain:
    from . import serialize
    return differential_d(serialize.chain_from_json(serialize._load(args.infile), model))


def __getattr__(name):
    # MultiVector and hkr moved to conhoch.multivector; they still resolve
    # here, and importing this module does not load that one
    if name in ("MultiVector", "hkr"):
        from . import multivector
        return getattr(multivector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
