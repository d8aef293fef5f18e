"""Windows of the constraint Hochschild complex and exact solves in them.

The tensor differential preserves both the total symmetric degree K and
the homogeneous coefficient degree c, so all cohomology is computed in
the finite-dimensional (arity, K, c) windows.  Within a window both
gradings refine further: the differential never touches coefficients, so
every computation splits into independent blocks, one per coefficient
monomial.  Tagged slice bases consist of monomial chains (the tagged
subspaces are monomially spanned on the flat model).

This module holds what the slice count of :mod:`conhoch.slicecount`, the
chain bases of :mod:`conhoch.decompose` and the solvers share:

* One window per kind.  Membership in the wobs or null subspace reads
  the coefficient only through its unit counts (d, t) and each slot word
  only through its letter profile.  A normal unit (t >= 1) makes every
  chain null, and wobs reads d only as d = 0, so a (tag, d, t) window is
  one of three kinds (:func:`_window`): every tuple, the null tuples or
  the wobs tuples.  Windows are decided per word and cached per (model,
  arity, K, window).
* Letter-content blocks.  The differential only splits slot words, so
  it keeps the multiset of letters across all slots (the letter
  content) and is block-diagonal over it; :func:`_image_columns` builds
  one integer sparse column per domain word.
* :func:`find_potential` and :func:`find_constraint_potential` - exact
  solves of D(psi) = phi through the sparse exact kernel of
  :mod:`conhoch.linalg`, one solve per letter-content block; the
  constructive decomposition built on them lives in
  :mod:`conhoch.decompose`.  :func:`cmd_find_potential` is the handler
  of the find-potential command.

No step is modular or floating point.  The windows read coefficients as
exponent tuples, so importing this module loads neither
:mod:`conhoch.poly` nor :mod:`fractions`; the solvers import the symbol
calculus on first use.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import NotCocycleError, NotConstraintError, PreconditionError
from .linalg import sparse_solve
from .model import Exponent, FlatModel, SubspaceTag
from .words import Slots, Word, _slot_profile, _tensor_member, unit_differential

if TYPE_CHECKING:  # the solvers import these on use
    from fractions import Fraction

    from .symbols import SymbolChain


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


# ---------------------------------------------------------------------------
# blocks of the differential
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
    from .poly import Poly
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


def cmd_find_potential(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    psi = find_constraint_potential(chain)
    return {"has_constraint_potential": psi is not None,
            "potential": None if psi is None else serialize.chain_to_json(psi)}
