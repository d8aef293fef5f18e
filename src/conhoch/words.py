"""Slot words: the splitting table and the unit differential.

A word is a sorted tuple of 1-based coordinate letters with repetition
(e.g. (1, 1, 3) stands for d1 v d1 v d3), one per slot of a monomial
chain.  This leaf module holds what the slice kernel of
:mod:`conhoch.cohomology` and :mod:`conhoch.slicecount` reads about
words: the one splitting table (:func:`_word_splits`, which the Leibniz
rule of :mod:`conhoch.diffops` and :mod:`conhoch.hochschild` reads too),
the differential of one unit monomial chain, and :func:`mv_members`,
the multivector monomials in a tagged class.  It imports only model,
which owns the one wobs/null membership rule of every monomial
(``_window``, ``_member`` and ``_slot_profile``).  The rules of the
hatted complement blocks, which only the symbol calculus asks, live in
:mod:`conhoch.symbols` (``monomial_member``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, List, Tuple

from .model import Exponent, FlatModel, SubspaceTag, _monomial_rule, _refuse_hatted

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


def mv_members(model: FlatModel, tag: SubspaceTag,
               monomials: Iterable[Tuple[Exponent, Word]]) -> List[Tuple[Exponent, Word]]:
    """The (coefficient exponent, index tuple) monomial multivectors among
    these in the tagged class, after refusing a hatted tag: a multivector
    monomial is a chain monomial with one single-letter word per index."""
    _refuse_hatted(tag, "multivectors")
    return [(gamma, idx) for gamma, idx in monomials
            if _monomial_rule(model, tag.value, gamma, [(i,) for i in idx])]
