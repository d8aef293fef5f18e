"""Exact rational linear algebra.

:func:`sparse_rank` and :func:`sparse_solve` form the library's only
eliminator, used for the differential, whose blocks are almost entirely
zero.  A matrix is a sequence of columns, each a dict from row keys to
int entries; a Fraction or float entry raises TypeError (from
:func:`math.gcd`), and zero entries are ignored.  Each column is copied
and reduced in place against the pivot columns found so far by
fraction-free integer cross-multiplication (in the style of Bareiss
1968, with the common content divided out instead of the previous pivot,
with the sign that makes the pivot entry positive), so the pivots are
exactly the earliest independent columns - the basic columns of the
reduced row echelon form.  A solve scales only its rational right-hand
side to integers, and sets every non-basic variable to 0.  No step is
modular or floating point.

The dense reference :class:`~conhoch.dense.RationalMatrix`, which the
tests compare this kernel against, lives in :mod:`conhoch.dense`, so no
command compiles it.  ``conhoch.linalg.RationalMatrix`` still resolves
to it on first access (the benchmark's tracer wraps its methods by name
here); importing this module does not load that one.

:mod:`fractions` (and with it :mod:`decimal`) is imported only by the
code that builds Fractions: :func:`sparse_solve`.  The slice count
never loads it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # sparse_solve imports it on use
    from fractions import Fraction

    Vector = List[Fraction]
    SparseColumn = Mapping[Hashable, int]


# ---------------------------------------------------------------------------
# the sparse kernel
# ---------------------------------------------------------------------------

#: a pivot: its row key, its reduced integer column and, when a solve
#: needs it, that column as an integer combination of the input columns
_Pivot = Tuple[Hashable, Dict[Hashable, int], Optional[Dict[int, int]]]


def _reduce(vec: Dict[Hashable, int], combo: Optional[Dict[int, int]],
            pivots: List[_Pivot]) -> None:
    """Clear vec at every pivot row in place: vec becomes a * vec - b * piv,
    a and b the entries of piv and vec at its row over their gcd.  A pivot
    is zero at the rows of all earlier pivots, so one pass in pivot order
    suffices; combo follows every step of vec."""
    for row, piv, piv_combo in pivots:
        b = vec.get(row)
        if b:
            a = piv[row]
            g = gcd(a, b)
            a, b = a // g, b // g
            for x, y in ((vec, piv), (combo, piv_combo)):
                if x is None:
                    break
                if a != 1:
                    for k in x:
                        x[k] *= a
                for k, v in y.items():
                    w = x.get(k, 0) - b * v
                    if w:
                        x[k] = w
                    else:
                        del x[k]


def _echelon(columns: Sequence[SparseColumn], track: bool) -> List[_Pivot]:
    """Pivots of the integer columns in input order; a Fraction or float
    entry raises TypeError (from math.gcd), and no column is rescaled.  A
    copy of each column's nonzero entries is reduced in place against
    the pivots before it; one left nonzero is stored over its content,
    signed so that its entry at its pivot row is positive.  With track,
    every pivot records its combination of the input columns."""
    pivots: List[_Pivot] = []
    for j, col in enumerate(columns):
        vec = {k: x for k, x in col.items() if x}
        combo = {j: 1} if track else None
        _reduce(vec, combo, pivots)
        if not vec:
            continue
        # the smallest entry keeps the multipliers of later steps small;
        # ties go to the first such entry, so the choice is deterministic
        least = min(map(abs, vec.values()))
        row = next(k for k, x in vec.items() if x == least or x == -least)
        content = gcd(*vec.values(), *(combo or {}).values())
        if vec[row] < 0:
            content = -content
        if content != 1:
            for x in (vec, combo or {}):
                for k in x:
                    x[k] //= content
        pivots.append((row, vec, combo))
    return pivots


def sparse_rank(columns: Sequence[SparseColumn]) -> int:
    """Rank of the matrix with the given sparse columns."""
    return len(_echelon(columns, track=False))


def sparse_solve(columns: Sequence[SparseColumn],
                 rhs: Mapping[Hashable, Fraction]) -> Optional[Vector]:
    """One exact solution x of sum_j x[j] * columns[j] = rhs, with every
    non-basic variable set to 0, or None when the system is
    inconsistent.  The columns are integer, as for :func:`_echelon`
    (a Fraction or float entry raises TypeError); rhs may be rational,
    and it is the one input scaled, once, by the lcm of its
    denominators."""
    from fractions import Fraction
    pivots = _echelon(columns, track=True)
    scale = lcm(*(x.denominator for x in rhs.values()))
    vec = {k: int(x * scale) for k, x in rhs.items() if x}
    # the key -1 carries the multiple s of the scaled right-hand side, so
    # that vec = s * scale * rhs + sum_j combo[j] * column j throughout
    combo = {-1: 1}
    _reduce(vec, combo, pivots)
    if vec:
        return None
    s = combo.pop(-1)
    solution = [Fraction(0)] * len(columns)
    for j, c in combo.items():
        solution[j] = Fraction(-c, s * scale)
    return solution


def __getattr__(name):
    # the dense reference moved to conhoch.dense; it still resolves here,
    # and importing this module does not load that one
    if name == "RationalMatrix":
        from .dense import RationalMatrix
        return RationalMatrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
