"""Bigraded slice assembly of the constraint Hochschild complex.

The tensor differential preserves both the total symmetric degree K and
the homogeneous coefficient degree c, so all cohomology is computed in
the finite-dimensional (arity, K, c) windows.  Within a window both
gradings refine further: the differential never touches coefficients, so
every computation splits into independent blocks, one per coefficient
monomial.  Tagged slice bases consist of monomial chains (the tagged
subspaces are monomially spanned on the flat model).

Three more facts make the blocks small and few:

* One window per kind.  Membership in the wobs or null subspace reads
  the coefficient only through its unit counts (d, t) and each slot word
  only through its letter profile.  A normal unit (t >= 1) makes every
  chain null, and wobs reads d only as d = 0, so a (tag, d, t) window is
  one of three kinds (:func:`_window`): every tuple, the null tuples or
  the wobs tuples.  Windows are decided per word and cached per (model,
  arity, K, window), as are their ranks.
* Letter-content blocks.  The differential only splits slot words, so
  it keeps the multiset of letters across all slots (the letter
  content) and is block-diagonal over it; :func:`_image_columns` builds
  one integer sparse column per domain word.
* Pattern ranks.  Relabelling letters inside a coordinate block keeps
  every letter profile and commutes with the differential, so blocks
  with equal sorted multiplicities per coordinate block have equal
  rank: ranks eliminate one block per pattern, solvers every block.

Ranks and solves go through the sparse exact kernel of
:mod:`conhoch.linalg`; no step is modular or floating point.  Only the
functions that build chains import :mod:`conhoch.symbols`, on first
use.

The main entry points:

* :func:`hh_dimension` - cohomology dimension of a tagged slice in
  degree 1 or 2 (degree 0 is reported directly from the function class,
  see :func:`hh0_dimension`; the incoming differential in degree 1
  vanishes because the algebra is commutative).
* :func:`classified_hh2_dimension` - the dimension the degree-2
  classification predicts: observable (or null) bivectors plus words of
  distribution letters with one normal letter.
* :func:`find_potential` and :func:`find_constraint_potential` - exact
  solves of D(psi) = phi; the constructive decomposition built on them
  lives in :mod:`conhoch.decompose`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import (TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import (InvariantError, NotCocycleError, NotConstraintError,
                     PreconditionError)
from .linalg import sparse_rank, sparse_solve
from .model import FlatModel, FunctionClass, SubspaceTag
from .poly import Exponent, Poly, monomials_of_degree
from .words import (Slots, Word, _slot_profile, _tensor_member,
                    mv_monomial_member, unit_differential)

if TYPE_CHECKING:  # the chain-building functions import these on first use
    from .symbols import MultiVector, SymbolChain

SLICE_TAGS = ("total", "wobs", "null")


class _SliceFields(NamedTuple):
    model: FlatModel
    arity: int
    sym_degree: int
    coeff_degree: int
    tag: str = "total"


class Slice(_SliceFields):
    """A finite-dimensional window of the symbol complex: fixed arity,
    total symmetric degree, homogeneous coefficient degree and tag.
    The differential maps the (n, K, c) slice into (n+1, K, c)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.arity < 1 or self.sym_degree < 1 or self.coeff_degree < 0:
            raise ValueError("invalid slice parameters")
        if self.tag not in SLICE_TAGS:
            raise ValueError(f"slice tag must be one of {SLICE_TAGS}")
        return self


def _positive_compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _positive_compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _all_slot_tuples(model: FlatModel, arity: int, sym_degree: int) -> Tuple[Slots, ...]:
    """Every tuple of slot words with the given arity and total symmetric
    degree, in deterministic order."""
    letters = range(1, model.n_total + 1)
    out: List[Slots] = []
    for split in _positive_compositions(sym_degree, arity):
        pools = [tuple(itertools.combinations_with_replacement(letters, k))
                 for k in split]
        out.extend(itertools.product(*pools))
    return tuple(out)


def _window(tag: str, d_units: int, t_units: int) -> str:
    """The kind of window a tag takes with a coefficient of these unit
    counts: "total" (every tuple) when a normal unit makes every chain
    null or the tag is total, "null" when wobs membership reduces to null
    membership (d >= 1), else "wobs"."""
    if tag == "total" or t_units >= 1:
        return "total"
    return "null" if tag == "null" or d_units >= 1 else "wobs"


@lru_cache(maxsize=None)
def _tagged_slots_for_units(model: FlatModel, arity: int, sym_degree: int,
                            window: str) -> Tuple[Slots, ...]:
    """Slot tuples of a :func:`_window` kind, in the order of
    :func:`_all_slot_tuples`; decided once per word profile and once per
    tuple of profiles."""
    all_slots = _all_slot_tuples(model, arity, sym_degree)
    if window == "total":
        return all_slots
    subtag = SubspaceTag(window)
    profile = {w: _slot_profile(model, w)
               for w in set(itertools.chain.from_iterable(all_slots))}.__getitem__
    member = lru_cache(maxsize=None)(lambda profiles: _tensor_member(0, 0, profiles, subtag))
    return tuple(s for s in all_slots if member(tuple(map(profile, s))))


def slice_monomials(slc: Slice) -> List[Tuple[Exponent, Slots]]:
    """Monomials spanning the tagged slice, coefficient-major, in
    deterministic order."""
    out: List[Tuple[Exponent, Slots]] = []
    for gamma in monomials_of_degree(slc.model.n_total, slc.coeff_degree):
        d, _, t = slc.model.unit_counts(gamma)
        for slots in _tagged_slots_for_units(slc.model, slc.arity, slc.sym_degree,
                                             _window(slc.tag, d, t)):
            out.append((gamma, slots))
    return out


def slice_basis(slc: Slice) -> List[SymbolChain]:
    """Basis of the tagged slice; the spanning monomials are linearly
    independent coordinates, so they are already a basis."""
    from .symbols import SymbolChain
    return [SymbolChain.from_term(slc.model, slots, Poly.monomial(gamma))
            for gamma, slots in slice_monomials(slc)]


# ---------------------------------------------------------------------------
# matrices of the differential and slice cohomology dimensions
# ---------------------------------------------------------------------------


def _letter_content(slots: Slots) -> Word:
    """Sorted letters of all slots together.  The differential only
    splits words, so it keeps this multiset and is block-diagonal over
    it."""
    return tuple(sorted(itertools.chain.from_iterable(slots)))


def _image_columns(model: FlatModel, words: Sequence[Slots]) -> List[Dict[Slots, int]]:
    """Images under the differential of the basis monomials with these
    slot words, as integer sparse columns keyed by image slot tuples.
    The coefficient monomial rides along unchanged, so callers pass only
    the words.  The model is part of the signature the callers share;
    the shuffles themselves do not depend on it."""
    return [unit_differential(slots) for slots in words]


@lru_cache(maxsize=None)
def _letter_blocks(model: FlatModel, arity: int, sym_degree: int,
                   window: str) -> Dict[Word, Tuple[Slots, ...]]:
    """The domain words of a window grouped by letter content, in
    enumeration order within each group.  Callers must not mutate the
    shared result."""
    blocks: Dict[Word, List[Slots]] = {}
    for slots in _tagged_slots_for_units(model, arity, sym_degree, window):
        blocks.setdefault(_letter_content(slots), []).append(slots)
    return {content: tuple(words) for content, words in blocks.items()}


@lru_cache(maxsize=None)
def _pattern(model: FlatModel, content: Word) -> Tuple[Tuple[int, int], ...]:
    """The sorted (coordinate block, multiplicity) pairs of the letters of
    a letter content, blocks numbered 0, 1, 2 for D, D-perp, TC-perp: the
    content up to relabelling letters inside their blocks."""
    return tuple(sorted(((letter > model.n_null) + (letter > model.n_wobs), n)
                        for letter, n in Counter(content).items()))


@lru_cache(maxsize=None)
def _rank_of_d(model: FlatModel, arity: int, sym_degree: int, window: str) -> int:
    """Rank of the differential on an (arity, K) window, for every
    coefficient monomial whose tag and unit counts give this window: the
    differential never touches the coefficient.  Blocks of one
    :func:`_pattern` have equal rank, so one block per pattern is
    eliminated."""
    blocks = _letter_blocks(model, arity, sym_degree, window)
    ranks: Dict[tuple, int] = {}
    total = 0
    for content, words in blocks.items():
        key = _pattern(model, content)
        if key not in ranks:
            ranks[key] = sparse_rank(_image_columns(model, words))
        total += ranks[key]
    return total


def matrix_of_D(domain: Slice, codomain: Slice) -> List[Dict[int, int]]:
    """Matrix of the differential between two tagged slices, in the
    deterministic monomial bases, as the sparse integer columns that
    :func:`~conhoch.linalg.sparse_rank` takes: one dict per domain
    monomial, keyed by row index in ``slice_monomials(codomain)``.  An
    image outside the codomain slice would break the tagged subcomplex
    property and raises InvariantError."""
    if (codomain.model != domain.model or codomain.arity != domain.arity + 1
            or codomain.sym_degree != domain.sym_degree
            or codomain.coeff_degree != domain.coeff_degree
            or codomain.tag != domain.tag):
        raise PreconditionError("codomain must be the domain slice with arity + 1")
    dom = slice_monomials(domain)
    index = {key: i for i, key in enumerate(slice_monomials(codomain))}
    columns: List[Dict[int, int]] = []
    for (gamma, _), col in zip(dom, _image_columns(domain.model, [s for _, s in dom])):
        rows: Dict[int, int] = {}
        for s2, value in col.items():
            i = index.get((gamma, s2))
            if i is None:
                raise InvariantError(
                    f"matrix_of_D: differential left the tagged slice at {(gamma, s2)}; "
                    "the tagged subspaces would fail to form a subcomplex")
            rows[i] = value
        columns.append(rows)
    return columns


def hh_dimension(model: FlatModel, tag: SubspaceTag, degree: int,
                 sym_degree: int, coeff_degree: int) -> int:
    """Cohomology dimension of the tagged (degree, K, c) slice.

    Degree 1: kernel of the differential on arity-1 chains (the incoming
    differential from functions vanishes by commutativity).  Degree 2:
    kernel on tagged arity-2 chains minus the rank coming from tagged
    arity-1 chains.  Both are assembled blockwise per coefficient
    monomial, which the differential never mixes, from the window ranks
    cached per :func:`_window` kind.
    """
    if degree not in (1, 2):
        raise PreconditionError("slice cohomology is computed in degrees 1 and 2")
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise PreconditionError("cohomology slices carry wobs/null tags")
    total = 0
    for gamma in monomials_of_degree(model.n_total, coeff_degree):
        d, _, t = model.unit_counts(gamma)
        window = (sym_degree, _window(tag.value, d, t))
        dim1 = len(_tagged_slots_for_units(model, 1, *window))
        if degree == 1:
            total += dim1 - _rank_of_d(model, 1, *window)
            continue
        dim2 = len(_tagged_slots_for_units(model, 2, *window))
        total += dim2 - _rank_of_d(model, 2, *window) - _rank_of_d(model, 1, *window)
    return total


def hh0_dimension(model: FlatModel, tag: SubspaceTag, coeff_degree: int) -> int:
    """Degree-0 cohomology of a coefficient slice: the function class
    itself (the coboundary of a function vanishes on the commutative
    algebra, so nothing is divided out)."""
    cls = {SubspaceTag.WOBS: FunctionClass.WOBS, SubspaceTag.NULL: FunctionClass.NULL}
    if tag not in cls:
        raise PreconditionError("degree 0 carries wobs/null tags")
    return len(model.function_slice_basis(cls[tag], coeff_degree))


# ---------------------------------------------------------------------------
# the classified right-hand side
# ---------------------------------------------------------------------------


def bivector_slice_monomials(model: FlatModel, tag: SubspaceTag,
                             coeff_degree: int) -> List[Tuple[Exponent, Tuple[int, int]]]:
    return [(gamma, pair)
            for gamma in monomials_of_degree(model.n_total, coeff_degree)
            for pair in itertools.combinations(range(1, model.n_total + 1), 2)
            if mv_monomial_member(model, gamma, pair, tag)]


def bivector_slice_basis(model: FlatModel, tag: SubspaceTag,
                         coeff_degree: int) -> List[MultiVector]:
    from .symbols import MultiVector
    return [MultiVector(model, 2, {pair: Poly.monomial(gamma)})
            for gamma, pair in bivector_slice_monomials(model, tag, coeff_degree)]


def normal_class_monomials(model: FlatModel, sym_degree: int,
                           coeff_degree: int) -> List[Tuple[Exponent, Tuple[int, ...]]]:
    """Monomials of the symmetric complement class: words of sym_degree-1
    distribution letters and exactly one normal letter, coefficients in
    the variables on C only."""
    if sym_degree < 2:
        return []
    normal = (0,) * (model.n_total - model.n_wobs)
    return [(gamma_c + normal, d_part + (u,))
            for gamma_c in monomials_of_degree(model.n_wobs, coeff_degree)
            for d_part in itertools.combinations_with_replacement(
                model.d_indices, sym_degree - 1)
            for u in model.tcperp_indices]


def normal_class_basis(model: FlatModel, sym_degree: int,
                       coeff_degree: int) -> List[SymbolChain]:
    from .symbols import SymbolChain
    return [SymbolChain.from_term(model, [word], Poly.monomial(gamma))
            for gamma, word in normal_class_monomials(model, sym_degree, coeff_degree)]


def classified_hh2_dimension(model: FlatModel, tag: SubspaceTag,
                             sym_degree: int, coeff_degree: int) -> int:
    """Dimension of the degree-2 classification in one (K, c) slice: the
    tagged bivectors contribute at K = 2 only (their chains have two
    degree-one slots) and the normal-word class contributes for every
    K >= 2, with K - 1 distribution letters."""
    if sym_degree < 2:
        raise PreconditionError("the degree-2 classification needs K >= 2")
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise PreconditionError("classification carries wobs/null tags")
    total = len(normal_class_monomials(model, sym_degree, coeff_degree))
    if sym_degree == 2:
        total += len(bivector_slice_monomials(model, tag, coeff_degree))
    return total


# ---------------------------------------------------------------------------
# exact solves against the differential
# ---------------------------------------------------------------------------


def _solve_d(rhs: SymbolChain, tag: Optional[SubspaceTag]) -> Optional[SymbolChain]:
    """Solve D(psi) = rhs for an arity rhs.arity - 1 chain, blockwise per
    (symmetric degree, coefficient monomial) and, inside, per letter
    content.  With tag None the domain is the full slice, otherwise the
    tagged slice.  Basic variables are the earliest independent domain
    columns and the others are 0, as in one solve over the whole
    (K, coefficient) block.  Returns None when some block has no
    solution."""
    from .symbols import SymbolChain
    model = rhs.model
    tag_name = tag.value if tag is not None else "total"
    blocks: Dict[Tuple[int, Exponent], Dict[Word, Dict[Slots, Fraction]]] = {}
    for gamma, slots, q in rhs.monomials():
        key = (sum(len(w) for w in slots), gamma)
        blocks.setdefault(key, {}).setdefault(_letter_content(slots), {})[slots] = q
    solution_terms: List[Tuple[Slots, Poly]] = []
    for (sym_degree, gamma), targets in sorted(blocks.items()):
        d, _, t = model.unit_counts(gamma)
        domain = _letter_blocks(model, rhs.arity - 1, sym_degree, _window(tag_name, d, t))
        for content, target in targets.items():
            words = domain.get(content, ())
            columns = _image_columns(model, words)
            solution = sparse_solve(columns, target)
            if solution is None:
                return None
            for slots, q in zip(words, solution):
                if q:
                    solution_terms.append((slots, Poly.monomial(gamma, q)))
    return SymbolChain(model, rhs.arity - 1, solution_terms)


def find_constraint_potential(phi: SymbolChain) -> Optional[SymbolChain]:
    """Exact solve of D(psi) = phi with psi restricted to the observable
    arity-1 slice; None exactly when no observable potential exists (the
    class of phi is nontrivial)."""
    _require_closed_constraint(phi)
    return _solve_d(phi, SubspaceTag.WOBS)


def find_potential(phi: SymbolChain) -> Optional[SymbolChain]:
    """Exact solve of D(psi) = phi over the full (untagged) slice."""
    from .symbols import differential_d
    if phi.arity < 2:
        raise PreconditionError("a potential needs a chain of arity at least 2")
    if not differential_d(phi).is_zero():
        raise NotCocycleError("chain is not closed")
    return _solve_d(phi, None)


def _require_closed_constraint(phi: SymbolChain) -> None:
    from .symbols import chain_membership, differential_d
    if phi.arity != 2:
        raise PreconditionError("expected an arity-2 chain")
    if not chain_membership(phi, SubspaceTag.WOBS):
        raise NotConstraintError("chain is not in the observable subspace")
    if not differential_d(phi).is_zero():
        raise NotCocycleError("chain is not closed")


# ---------------------------------------------------------------------------
# slice reports
# ---------------------------------------------------------------------------


def hh2_slice_report(model: FlatModel, tag: SubspaceTag, sym_degree: int,
                     coeff_degree: int, with_representatives: bool = False) -> dict:
    """Comparison record for one (K, c) slice of degree 2."""
    hh = hh_dimension(model, tag, 2, sym_degree, coeff_degree)
    rhs = classified_hh2_dimension(model, tag, sym_degree, coeff_degree)
    report = {
        "model": model,
        "tag": tag.value,
        "degree": 2,
        "K": sym_degree,
        "c": coeff_degree,
        "hh_dim": hh,
        "rhs_dim": rhs,
        "match": hh == rhs,
    }
    if with_representatives:
        from .symbols import differential_d, hkr
        reps: List[SymbolChain] = []
        if sym_degree == 2:
            reps.extend(hkr(x) for x in bivector_slice_basis(model, tag, coeff_degree))
        reps.extend(differential_d(psi)
                    for psi in normal_class_basis(model, sym_degree, coeff_degree))
        report["representatives"] = reps
    return report
