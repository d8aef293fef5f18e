"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``nvars`` variables x1, .., xn is stored as a map from
exponent tuples (one non-negative integer per variable) to nonzero
``Fraction`` coefficients:

    x1^2 * x3 + 3/2   ->   {(2, 0, 1): Fraction(1), (0, 0, 0): Fraction(3, 2)}

The zero polynomial keeps an empty map.  All arithmetic is exact; no
floating point appears anywhere.  Canonical form never stores zero
coefficients, and the canonical term order is graded lexicographic
(higher total degree first, then lexicographically larger exponent
tuple first), which makes printing and serialisation deterministic.

Variable indices in the public API are 1-based, matching the coordinate
labels x1..xn used throughout the package.  The exponent helpers
``Exponent`` and :func:`monomials_of_degree` live in :mod:`conhoch.model`,
which needs no polynomial arithmetic, and are re-exported here.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .model import Exponent, monomials_of_degree

Scalar = Union[int, Fraction]


def grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    """Sort key for the graded lexicographic term order (ascending)."""
    return (sum(exp), exp)


def monomials_up_to_degree(nvars: int, max_degree: int) -> List[Exponent]:
    """All exponent tuples of total degree 0..max_degree."""
    out: List[Exponent] = []
    for d in range(max_degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


class Poly:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] = ()):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: Dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for {nvars} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            q = Fraction(coeff)
            if q != 0:
                q += clean.get(exp, Fraction(0))
                if q:
                    clean[exp] = q
                else:
                    clean.pop(exp, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The coordinate function x_index (1-based index)."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range [1, {nvars}]")
        exp = [0] * nvars
        exp[index - 1] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff: Scalar = 1) -> "Poly":
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in canonical order: graded lexicographic, largest first."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"polynomials over {self.nvars} and {other.nvars} variables")

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            q = terms.get(exp, Fraction(0)) + coeff
            if q:
                terms[exp] = q
            else:
                terms.pop(exp, None)
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            q = Fraction(other)
            return Poly(self.nvars, {e: c * q for e, c in self.terms.items()})
        self._check(other)
        prod: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                q = prod.get(exp, Fraction(0)) + ca * cb
                if q:
                    prod[exp] = q
                else:
                    prod.pop(exp, None)
        return Poly(self.nvars, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- calculus --------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to x_index (1-based).

        Lowers the chosen exponent by one with the usual multiplicity
        factor; raises IndexError outside [1, nvars].
        """
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range [1, {self.nvars}]")
        i = index - 1
        terms: Dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = coeff * exp[i]
        return Poly(self.nvars, terms)

    def partial_word(self, word: Iterable[int]) -> "Poly":
        """Iterated partial derivative along a word of 1-based indices."""
        result = self
        for index in word:
            result = result.partial(index)
            if result.is_zero():
                break
        return result

    def substitute_zero(self, positions: Iterable[int]) -> "Poly":
        """Set the variables at the given 0-based positions to zero."""
        pos = set(positions)
        return Poly(self.nvars, {e: c for e, c in self.terms.items()
                                 if all(e[p] == 0 for p in pos)})

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                other = Poly.constant(self.nvars, other)
            else:
                return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        from .printer import poly_text
        return poly_text(self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"
