"""The dense exact reference: the tests compare the sparse kernel with it.

:class:`RationalMatrix` holds a dense matrix of Fraction entries.  Its
rank is Bareiss elimination on an integer-scaled copy, and its solve
goes through the reduced row echelon form over Fraction, with the same
first-nonzero pivoting as :func:`conhoch.linalg.sparse_rank` and free
variables set to 0.  No library code uses it, so no command compiles
this module.  ``conhoch.linalg.RationalMatrix`` still resolves here, on
first access, because the benchmark's tracer wraps its methods there.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the methods import it on use
    from fractions import Fraction

    from .linalg import Vector


class RationalMatrix:
    """Dense matrix with Fraction entries: the test reference for the
    sparse kernel."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]], cols: Optional[int] = None):
        from fractions import Fraction
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

    def rank(self) -> int:
        """Rank via fraction-free Bareiss elimination over the integers,
        on a copy with each row scaled by the lcm of its denominators."""
        m = []
        for row in self.entries:
            denom_lcm = 1
            for x in row:
                denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
            m.append([int(x * denom_lcm) for x in row])
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
        from fractions import Fraction
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

    def solve(self, rhs: Sequence[Fraction]) -> Optional[Vector]:
        """One exact solution of A x = rhs (free variables set to 0), or
        None when the system is inconsistent."""
        from fractions import Fraction
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

