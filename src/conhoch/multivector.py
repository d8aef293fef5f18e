"""Multivector fields: wedges, antisymmetrisation into chains, membership.

A :class:`MultiVector` shares the term-map core of
:class:`~conhoch.symbols.SymbolChain`; its keys are strictly increasing
index tuples.  This module holds the wedge product, the
antisymmetrisation :func:`hkr` into chains whose slots all have
symmetric degree one, the constraint membership of multivectors
(decided per monomial by :func:`conhoch.words.mv_members`), the
coisotropy of a bivector and the handler of the hkr command.

Star products, operators and the solvers never build a multivector, so
their routes do not compile this module: :mod:`conhoch.decompose` (the
bivector of a cocycle class), the decoder
``serialize.multivector_from_json`` and the representatives of
``verify-theorem --reps`` import it.  ``conhoch.symbols.MultiVector``
and ``conhoch.symbols.hkr`` still resolve here, on first access.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .model import FlatModel, SubspaceTag, _same_model
from .poly import Poly
from .symbols import SymbolChain, _TermMap
from .words import Slots, mv_members


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def sort_with_sign(model: FlatModel, degree: int,
                   indices) -> Tuple[Optional[Tuple[int, ...]], int]:
    """(sorted tuple, sign) of degree int wedge indices (else ValueError),
    each a letter of the model (else IndexError), in any order; (None, 0)
    when an index repeats (the wedge vanishes)."""
    indices = tuple(indices)
    if len(indices) != degree or not all(type(i) is int for i in indices):
        raise ValueError(f"index tuple {indices} needs {degree} int entries")
    if not all(1 <= i <= model.n_total for i in indices):
        raise IndexError(f"index out of range in {indices}")
    if len(set(indices)) != len(indices):
        return None, 0
    order = sorted(range(len(indices)), key=lambda k: indices[k])
    return tuple(indices[k] for k in order), _perm_sign(order)


class MultiVector(_TermMap):
    """Antisymmetric multivector field; keys are strictly increasing
    index tuples, values polynomial coefficients."""

    __slots__ = ()
    _grade_name = "degree"
    _too_low = "multivector degree must be at least 1"
    _encoder = "multivector_to_json"

    @property
    def degree(self) -> int:
        return self._grade

    @staticmethod
    def _check_key(model: FlatModel, degree: int, idx) -> Tuple[int, ...]:
        idx = tuple(idx)
        if sort_with_sign(model, degree, idx)[0] != idx:
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        return idx

    @classmethod
    def wedge_of_frames(cls, model: FlatModel, indices: Sequence[int],
                        coeff=1) -> "MultiVector":
        """coeff * d_{i1} ^ .. ^ d_{ik}; indices need not be sorted."""
        sorted_idx, sign = sort_with_sign(model, len(indices), indices)
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(model.n_total, coeff)
        if sorted_idx is None:
            return cls.zero(model, len(indices))
        return cls(model, len(indices), {sorted_idx: poly * sign})

    def component(self, indices: Sequence[int]) -> Poly:
        """Signed coefficient at an index tuple in any order; a repeated
        index answers zero."""
        sorted_idx, sign = sort_with_sign(self.model, self.degree, indices)
        coeff = self.terms.get(sorted_idx)
        return Poly.zero(self.model.n_total) if coeff is None else coeff * sign


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Wedge product of multivectors."""
    _same_model(a.model, b.model)
    out = MultiVector.zero(a.model, a.degree + b.degree)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            out = out + MultiVector.wedge_of_frames(a.model, ia + ib, ca * cb)
    return out


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


def mv_membership(x: MultiVector, tag: SubspaceTag) -> bool:
    """Constraint membership of a multivector, decided per monomial (both
    tagged classes are monomially spanned); a hatted tag raises, on zero too."""
    monomials = [(gamma, idx) for gamma, idx, _ in x.monomials()]
    return len(mv_members(x.model, tag, monomials)) == len(monomials)


def coisotropy_check(pi: MultiVector) -> bool:
    """Compatibility of a bivector with the embedded submanifold: for every
    normal coordinate, its hamiltonian field restricted to C must lie in
    the distribution, i.e. the components pairing a normal index with any
    non-distribution index vanish on C.  True for every observable
    bivector."""
    if pi.degree != 2:
        raise PreconditionError("coisotropy is a bivector condition")
    model = pi.model
    for u in model.tcperp_indices:
        for i in range(model.n_null + 1, model.n_total + 1):
            if i == u:
                continue
            if not model.restrict_to_c(pi.component((u, i))).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# handler of the command that reads one multivector
# ---------------------------------------------------------------------------


def cmd_hkr(model, args) -> SymbolChain:
    from . import serialize
    return hkr(serialize.multivector_from_json(serialize._load(args.infile), model))
