"""Slot words: shuffle splittings and per-monomial membership.

A word is a sorted tuple of 1-based coordinate letters with repetition
(e.g. (1, 1, 3) stands for d1 v d1 v d3), one per slot of a monomial
chain.  This leaf module holds what the slice kernel of
:mod:`conhoch.cohomology` and :mod:`conhoch.slicecount` reads about
words: shuffle splittings, the differential of one unit monomial chain,
letter profiles by coordinate block and the wobs/null membership rules
of chain and multivector monomials.  It imports only errors and model.
The rules of the hatted complement blocks, which only the symbol
calculus asks, live in :mod:`conhoch.symbols` (``monomial_member``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import UnsupportedTagError
from .model import Exponent, FlatModel, SubspaceTag

Word = Tuple[int, ...]
Slots = Tuple[Word, ...]


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
