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

* One window per kind.  Membership in the wobs or null subspace is the
  one rule of :mod:`conhoch.model`: the coefficient's unit counts (d, t)
  pick a window kind (``model._window``: every tuple, the null tuples or
  the wobs tuples), and the slot words' letter profiles are tested
  against it (``model._member``).
* Letter-content blocks, the one unit of the slice count and the
  solvers.  The differential keeps the letters of all slots together
  (the letter content) and is block-diagonal over them.
  :func:`_content_words` lists one block's domain words and
  :func:`_image_columns` their integer sparse columns; only the chain
  bases list a whole window (:func:`_tagged_slots_for_units`).
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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import NotClosedError, NotConstraintError, PreconditionError
from .linalg import sparse_solve
from .model import Exponent, FlatModel, SubspaceTag, _member, _slot_profile, _window
from .words import Slots, Word, _word_splits, unit_differential

if TYPE_CHECKING:  # the solvers import these on use
    from fractions import Fraction

    from .symbols import SymbolChain


def _window_order(slots: Slots) -> tuple:
    """Slot tuples sort by their word lengths, then lexicographically."""
    return tuple(map(len, slots)), slots


@lru_cache(maxsize=None)
def _content_words(model: FlatModel, arity: int, content: Word,
                   window: str) -> Tuple[Slots, ...]:
    """The domain words of one letter-content block of a ``_window``
    kind: the tuples of arity slot words that split content one word at a
    time (the proper ``_word_splits``), kept by the membership rule
    (``_member``), in window order."""
    words = [(content,)] if arity == 1 else [
        (left,) + rest for left, right, _ in _word_splits(content)[1:-1]
        for rest in _content_words(model, arity - 1, right, "total")]
    if window != "total":
        words = [s for s in words if _member(window, [_slot_profile(model, w) for w in s])]
    return tuple(sorted(words, key=_window_order))


def _contents(model: FlatModel, sym_degree: int) -> Iterable[Word]:
    """Every letter content of a symmetric degree (none below 1)."""
    letters = range(1, model.n_total + 1)
    return itertools.combinations_with_replacement(letters, sym_degree) if sym_degree > 0 else ()


@lru_cache(maxsize=None)
def _tagged_slots_for_units(model: FlatModel, arity: int, sym_degree: int,
                            window: str) -> Tuple[Slots, ...]:
    """Every slot tuple of a ``_window`` kind, in window order: the
    content blocks of the window merged.  Only the chain bases of
    :mod:`conhoch.decompose` list a whole window."""
    return tuple(sorted(itertools.chain.from_iterable(
        _content_words(model, arity, content, window)
        for content in _contents(model, sym_degree)), key=_window_order))


@lru_cache(maxsize=None)
def _all_slot_tuples(model: FlatModel, arity: int, sym_degree: int) -> Tuple[Slots, ...]:
    """Every slot tuple of an (arity, K) window, in window order."""
    return _tagged_slots_for_units(model, arity, sym_degree, "total")


# ---------------------------------------------------------------------------
# blocks of the differential
# ---------------------------------------------------------------------------


def _letter_content(slots: Slots) -> Word:
    """Sorted letters of all slots together: the differential keeps them."""
    return tuple(sorted(itertools.chain.from_iterable(slots)))


def _image_columns(model: FlatModel, words: Sequence[Slots]) -> List[Dict[Slots, int]]:
    """Images under the differential of the basis monomials with these
    slot words, as integer sparse columns keyed by image slot tuples.
    The coefficient monomial rides along unchanged, so callers pass only
    the words.  The model is part of the signature the callers share;
    the shuffles themselves do not depend on it."""
    return [unit_differential(slots) for slots in words]


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
        window = _window(tag_name, d, t)
        for content, target in targets.items():
            words = _content_words(model, rhs.arity - 1, content, window)
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
        raise NotClosedError("chain is not closed")
    return _solve_d(phi, None)


def _require_closed_constraint(phi: SymbolChain) -> None:
    from .symbols import chain_membership, differential_d
    if phi.arity != 2:
        raise PreconditionError("expected an arity-2 chain")
    if not chain_membership(phi, SubspaceTag.WOBS):
        raise NotConstraintError("chain is not in the observable subspace")
    if not differential_d(phi).is_zero():
        raise NotClosedError("chain is not closed")


def cmd_find_potential(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    psi = find_constraint_potential(chain)
    return {"has_constraint_potential": psi is not None, "potential": psi}
