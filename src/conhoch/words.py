"""Slot words: splittings and per-monomial membership.

A word is a sorted tuple of 1-based coordinate letters with repetition
(e.g. (1, 1, 3) stands for d1 v d1 v d3), one per slot of a monomial
chain.  This leaf module holds what the slice kernel of
:mod:`conhoch.cohomology` and :mod:`conhoch.slicecount` reads about
words: the one splitting table (:func:`_word_splits`, which the Leibniz
rule of :mod:`conhoch.diffops` and :mod:`conhoch.hochschild` reads too),
the differential of one unit monomial chain,
letter profiles by coordinate block and the wobs/null membership rules
of chain and multivector monomials.  It imports only errors and model.
The rules of the hatted complement blocks, which only the symbol
calculus asks, live in :mod:`conhoch.symbols` (``monomial_member``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, List, Tuple

from .errors import UnsupportedTagError
from .model import Exponent, FlatModel, SubspaceTag

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


def mv_members(model: FlatModel, tag: SubspaceTag,
               monomials: Iterable[Tuple[Exponent, Word]]) -> List[Tuple[Exponent, Word]]:
    """The (coefficient exponent, index tuple) monomial multivectors among
    these in the tagged class, after refusing a hatted tag.  Null ones are
    wedges with one null factor (a distribution letter or a normal
    coefficient variable); observable ones also wedges of observable fields."""
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise UnsupportedTagError(f"multivectors carry only wobs/null tags, not {tag.value}")
    kept = []
    for gamma, idx in monomials:
        d, _, t = model.unit_counts(gamma)
        nd, np_, nt = _slot_profile(model, idx)
        if nd >= 1 or t >= 1 or (tag is SubspaceTag.WOBS and _word_wobs_ok(t, d, nd, np_, nt)):
            kept.append((gamma, idx))
    return kept
