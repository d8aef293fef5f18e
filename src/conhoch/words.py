"""Slot words: splittings and the one membership rule of monomials.

A word is a sorted tuple of 1-based coordinate letters with repetition
(e.g. (1, 1, 3) stands for d1 v d1 v d3), one per slot of a monomial
chain.  This leaf module holds what the slice kernel of
:mod:`conhoch.cohomology` and :mod:`conhoch.slicecount` reads about
words: the one splitting table (:func:`_word_splits`, which the Leibniz
rule of :mod:`conhoch.diffops` and :mod:`conhoch.hochschild` reads too),
the differential of one unit monomial chain, letter profiles by
coordinate block, and the one wobs/null membership rule of every
monomial, chain, multivector or function: the coefficient picks a
window kind (:func:`_window`) and the slot words are tested against it
(:func:`_member`).  It imports only model.  The rules of the hatted
complement blocks, which only the symbol calculus asks, live in
:mod:`conhoch.symbols` (``monomial_member``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

from .model import Exponent, FlatModel, SubspaceTag, _refuse_hatted

Word = Tuple[int, ...]
Slots = Tuple[Word, ...]


@lru_cache(maxsize=None)
def _word_splits(word: Word) -> Tuple[Tuple[Word, Word, int], ...]:
    """Every splitting of a word into a sub-multiset and its complement,
    as (left, right, multiplicity) with multiplicity prod_v C(m_v, j_v)
    over the letters v (m_v copies in the word, j_v on the left).  That
    is both the Leibniz coefficient of a derivative word over a product
    of two functions and the number of shuffles giving the pair.  The
    first entry puts the whole word on the right and the last on the
    left, so ``[1:-1]`` are the proper splittings (both sides nonempty)."""
    letters = sorted(set(word))
    mults = [word.count(v) for v in letters]
    splits = []
    for choice in itertools.product(*(range(m + 1) for m in mults)):
        left, right, n = (), (), 1
        for v, m, j in zip(letters, mults, choice):
            left += (v,) * j
            right += (v,) * (m - j)
            n *= comb(m, j)
        splits.append((left, right, n))
    return tuple(splits)


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
        for left, right, n in _word_splits(word)[1:-1]:
            out[head + (left, right) + tail] = sign * n
    return out


# ---------------------------------------------------------------------------
# the membership rule
#
# Every constraint subspace occurring here is spanned by monomials
# (coefficient monomial times a tuple of frame words), so membership of an
# arbitrary element is decided monomial by monomial.  The observable and
# null classes are the exact monomial characterisations of the defining
# operator-level conditions (observable arguments map to observables,
# and to nulls once one argument is null): worst-case argument analysis
# shows that a monomial is null precisely when its coefficient carries a
# normal variable or some slot word mixes distribution letters with no
# normal letter (such a slot annihilates every observable argument into
# the null class), and observable when additionally a coefficient free of
# distribution variables together with normal-letter-free words
# qualifies.  A function has no slot words, a multivector one
# single-letter word per index.  The analysis is cross-checked against
# the definitional classifiers in the test suite.
# ---------------------------------------------------------------------------


def _slot_profile(model: FlatModel, word: Word) -> Tuple[int, int, int]:
    """Letter counts of a word by block: (d, dperp, tcperp)."""
    nd = sum(1 for i in word if i <= model.n_null)
    nt = sum(1 for i in word if i > model.n_wobs)
    return nd, len(word) - nd - nt, nt


def _window(tag: str, d_units: int, t_units: int) -> str:
    """The kind of window a tag takes with a coefficient of these unit
    counts: "total" (every tuple) when a normal unit makes every monomial
    null or the tag is total, "null" when wobs membership reduces to null
    membership (d >= 1), else "wobs"."""
    if tag == "total" or t_units >= 1:
        return "total"
    return "null" if tag == "null" or d_units >= 1 else "wobs"


def _member(window: str, profiles: Sequence[Tuple[int, int, int]]) -> bool:
    """Whether slot words with these letter profiles lie in a
    :func:`_window` kind.  Null: some word has a distribution letter and
    no normal letter.  Wobs: null, or no word has a normal letter."""
    return (window == "total" or any(nd >= 1 and nt == 0 for nd, _, nt in profiles)
            or window == "wobs" and all(nt == 0 for _, _, nt in profiles))


def mv_members(model: FlatModel, tag: SubspaceTag,
               monomials: Iterable[Tuple[Exponent, Word]]) -> List[Tuple[Exponent, Word]]:
    """The (coefficient exponent, index tuple) monomial multivectors among
    these in the tagged class, after refusing a hatted tag: a multivector
    monomial is a chain monomial with one single-letter word per index."""
    _refuse_hatted(tag, "multivectors")
    kept = []
    for gamma, idx in monomials:
        d, _, t = model.unit_counts(gamma)
        if _member(_window(tag.value, d, t), [_slot_profile(model, (i,)) for i in idx]):
            kept.append((gamma, idx))
    return kept
