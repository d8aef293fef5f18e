"""Exact rational linear algebra.

:func:`sparse_rank` and :func:`sparse_solve` form the library's only
eliminator, used for the differential, whose blocks are almost entirely
zero.  A matrix is a sequence of columns, each a dict from row keys to
int or Fraction entries.  Each column is scaled to integers and reduced
in place against the pivot columns found so far by fraction-free integer
cross-multiplication (in the style of Bareiss 1968, with the common
content divided out instead of the previous pivot, with the sign that
makes the pivot entry positive), so the pivots are exactly the earliest
independent columns - the basic columns of the reduced row echelon
form.  A solve sets every other variable to 0.  No step is modular or
floating point.

The dense reference :class:`~conhoch.dense.RationalMatrix`, which the
tests compare this kernel against, lives in :mod:`conhoch.dense`, so no
command compiles it.  ``conhoch.linalg.RationalMatrix`` still resolves
to it on first access (the benchmark's tracer wraps its methods by name
here); importing this module does not load that one.

Ranks read entries only through ``.denominator``, which int has too, so
:mod:`fractions` (and with it :mod:`decimal`) is imported only by the
code that builds Fractions: :func:`sparse_solve`.  The slice count
never loads it.
"""

from __future__ import annotations

from math import gcd
from typing import (TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

if TYPE_CHECKING:  # sparse_solve imports it on use
    from fractions import Fraction

    Vector = List[Fraction]
    SparseColumn = Mapping[Hashable, Union[int, Fraction]]


# ---------------------------------------------------------------------------
# the sparse kernel
# ---------------------------------------------------------------------------

#: a pivot: its row key, its reduced integer column and, when a solve
#: needs it, that column as an integer combination of the input columns
_Pivot = Tuple[Hashable, Dict[Hashable, int], Optional[Dict[int, int]]]


def _integer_column(col: SparseColumn) -> Tuple[Dict[Hashable, int], int]:
    """The nonzero entries of a column times the lcm of their
    denominators, and that lcm."""
    scale = 1
    for x in col.values():
        den = x.denominator
        scale = scale * den // gcd(scale, den)
    return {k: int(x * scale) for k, x in col.items() if x}, scale


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


def _echelon(columns: Sequence[SparseColumn], track: bool) -> Tuple[List[_Pivot], List[int]]:
    """Pivots of the columns in input order, and each column's integer
    scale.  Each column is reduced in place against the pivots before it;
    one left nonzero is stored over its content, signed so that its entry
    at its pivot row is positive.  With track, every pivot records its
    combination of the scaled input columns."""
    pivots: List[_Pivot] = []
    scales: List[int] = []
    for j, col in enumerate(columns):
        vec, scale = _integer_column(col)
        scales.append(scale)
        combo = {j: 1} if track else None
        _reduce(vec, combo, pivots)
        if not vec:
            continue
        # the smallest entry keeps the multipliers of later steps small;
        # ties go to the first such entry, so the choice is deterministic
        row = min(vec, key=lambda k: abs(vec[k]))
        content = gcd(*vec.values(), *(combo or {}).values())
        if vec[row] < 0:
            content = -content
        if content != 1:
            for x in (vec, combo or {}):
                for k in x:
                    x[k] //= content
        pivots.append((row, vec, combo))
    return pivots, scales


def sparse_rank(columns: Sequence[SparseColumn]) -> int:
    """Rank of the matrix with the given sparse columns."""
    return len(_echelon(columns, track=False)[0])


def sparse_solve(columns: Sequence[SparseColumn], rhs: SparseColumn) -> Optional[Vector]:
    """One exact solution x of sum_j x[j] * columns[j] = rhs, with every
    non-basic variable set to 0, or None when the system is
    inconsistent."""
    from fractions import Fraction
    pivots, scales = _echelon(columns, track=True)
    vec, rhs_scale = _integer_column(rhs)
    # the key -1 carries the multiple s of the right-hand side, so that
    # vec = s * rhs + sum_j combo[j] * column j throughout the reduction,
    # rhs and columns taken at their integer scales
    combo = {-1: 1}
    _reduce(vec, combo, pivots)
    if vec:
        return None
    s = combo.pop(-1)
    solution = [Fraction(0)] * len(columns)
    for j, c in combo.items():
        solution[j] = Fraction(-c * scales[j], s * rhs_scale)
    return solution


def __getattr__(name):
    # the dense reference moved to conhoch.dense; it still resolves here,
    # and importing this module does not load that one
    if name == "RationalMatrix":
        from .dense import RationalMatrix
        return RationalMatrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
