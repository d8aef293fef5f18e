"""Exact rational linear algebra.

Two exact routes live here, and neither takes a modular or
floating-point step:

* :class:`RationalMatrix` is dense.  Its rank uses fraction-free
  (Bareiss) Gaussian elimination on an integer-scaled copy of the
  matrix; kernels and linear solves use reduced row echelon form over
  Fraction.  Pivoting is deterministic (first nonzero entry in
  row-major scan order), so bases of kernels and particular solutions
  are reproducible across runs.
* :func:`sparse_rank` and :func:`sparse_solve` form the sparse kernel
  used for the differential, whose blocks are almost entirely zero.
  A matrix is a sequence of columns, each a dict from row keys to int or
  Fraction entries.  Each column is scaled to integers and reduced
  against the pivot columns found so far by fraction-free integer
  cross-multiplication (in the style of Bareiss 1968, with the common
  content divided out instead of the previous pivot), so the pivots are
  exactly the earliest independent columns - the basic columns of the
  reduced row echelon form.  A solve sets every other variable to 0 and
  therefore returns the same vector as :meth:`RationalMatrix.solve`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

Vector = List[Fraction]
Number = Union[int, Fraction]
SparseColumn = Mapping[Hashable, Number]


class RationalMatrix:
    """Dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]], cols: Optional[int] = None):
        # Fractions are immutable, so existing ones are shared, not copied
        self.entries = [[x if type(x) is Fraction else Fraction(x) for x in row]
                        for row in entries]
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
            if any(len(r) != self.cols for r in self.entries):
                raise ValueError("ragged matrix")
        else:
            self.cols = cols if cols is not None else 0

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], rows: int) -> "RationalMatrix":
        entries = [[Fraction(col[r]) for col in columns] for r in range(rows)]
        return cls(entries, cols=len(columns))

    def column(self, j: int) -> Vector:
        return [self.entries[i][j] for i in range(self.rows)]

    def _integer_copy(self) -> List[List[int]]:
        out = []
        for row in self.entries:
            denom_lcm = 1
            for x in row:
                denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
            out.append([int(x * denom_lcm) for x in row])
        return out

    def rank(self) -> int:
        """Rank via fraction-free Bareiss elimination over the integers."""
        m = self._integer_copy()
        rows, cols = self.rows, self.cols
        rank = 0
        prev = 1
        for col in range(cols):
            pivot_row = None
            for r in range(rank, rows):
                if m[r][col] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            if pivot_row != rank:
                m[rank], m[pivot_row] = m[pivot_row], m[rank]
            pivot = m[rank][col]
            for r in range(rank + 1, rows):
                factor = m[r][col]
                for c in range(col, cols):
                    m[r][c] = (m[r][c] * pivot - factor * m[rank][c]) // prev
            prev = pivot
            rank += 1
            if rank == rows:
                break
        return rank

    def rref(self) -> Tuple[List[Vector], List[int]]:
        """Reduced row echelon form (over Fraction) and pivot columns."""
        m = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        pivots: List[int] = []
        r = 0
        for col in range(cols):
            pivot_row = None
            for i in range(r, rows):
                if m[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][col]
            m[r] = [x * inv for x in m[r]]
            for i in range(rows):
                if i != r and m[i][col] != 0:
                    factor = m[i][col]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
            if r == rows:
                break
        return m, pivots

    def kernel_basis(self) -> List[Vector]:
        """Basis of the right kernel, one vector per free column, with the
        free variable set to 1 (deterministic order)."""
        rref, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * self.cols
            vec[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -rref[r][free]
            basis.append(vec)
        return basis

    def nullity(self) -> int:
        return self.cols - self.rank()

    def solve(self, rhs: Sequence[Fraction]) -> Optional[Vector]:
        """One exact solution of A x = rhs (free variables set to 0), or
        None when the system is inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("right-hand side has wrong length")
        augmented = [row + [Fraction(rhs[i])] for i, row in enumerate(self.entries)]
        aug = RationalMatrix(augmented)
        rref, pivots = aug.rref()
        if self.cols in pivots:
            return None
        solution = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            solution[pc] = rref[r][self.cols]
        return solution

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


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


def _combine(a: int, x: Dict, b: int, y: Dict) -> Dict:
    """a * x + b * y without zero entries."""
    out = {k: a * v for k, v in x.items()} if a != 1 else dict(x)
    for k, v in y.items():
        w = out.get(k, 0) + b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _reduce(vec: Dict[Hashable, int], combo: Optional[Dict[int, int]],
            pivots: List[_Pivot]) -> Tuple[Dict[Hashable, int], Optional[Dict[int, int]]]:
    """Clear vec at every pivot row.  A pivot is zero at the rows of all
    earlier pivots, so one pass in pivot order suffices; combo follows
    every step of vec."""
    for row, piv, piv_combo in pivots:
        b = vec.get(row)
        if b:
            a = piv[row]
            g = gcd(a, b)
            a, b = a // g, -(b // g)
            vec = _combine(a, vec, b, piv)
            if combo is not None:
                combo = _combine(a, combo, b, piv_combo)
    return vec, combo


def _echelon(columns: Sequence[SparseColumn], track: bool) -> Tuple[List[_Pivot], List[int]]:
    """Pivots of the columns in input order, and each column's integer
    scale.  With track, every pivot records its combination of the
    scaled input columns."""
    pivots: List[_Pivot] = []
    scales: List[int] = []
    for j, col in enumerate(columns):
        vec, scale = _integer_column(col)
        scales.append(scale)
        vec, combo = _reduce(vec, {j: 1} if track else None, pivots)
        if not vec:
            continue
        content = 0
        for v in vec.values():
            content = gcd(content, v)
        if combo is not None:
            for v in combo.values():
                content = gcd(content, v)
        if content != 1:
            vec = {k: v // content for k, v in vec.items()}
            if combo is not None:
                combo = {k: v // content for k, v in combo.items()}
        # the smallest entry keeps the multipliers of later steps small;
        # ties go to the first such entry, so the choice is deterministic
        row = min(vec, key=lambda k: abs(vec[k]))
        pivots.append((row, vec, combo))
    return pivots, scales


def sparse_rank(columns: Sequence[SparseColumn]) -> int:
    """Rank of the matrix with the given sparse columns."""
    return len(_echelon(columns, track=False)[0])


def sparse_solve(columns: Sequence[SparseColumn], rhs: SparseColumn) -> Optional[Vector]:
    """One exact solution x of sum_j x[j] * columns[j] = rhs, with every
    non-basic variable set to 0, or None when the system is
    inconsistent."""
    pivots, scales = _echelon(columns, track=True)
    vec, rhs_scale = _integer_column(rhs)
    # the key -1 carries the multiple s of the right-hand side, so that
    # vec = s * rhs + sum_j combo[j] * column j throughout the reduction,
    # rhs and columns taken at their integer scales
    vec, combo = _reduce(vec, {-1: 1}, pivots)
    if vec:
        return None
    s = combo.pop(-1)
    solution = [Fraction(0)] * len(columns)
    for j, c in combo.items():
        solution[j] = Fraction(-c * scales[j], s * rhs_scale)
    return solution
