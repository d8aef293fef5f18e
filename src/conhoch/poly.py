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

The constructor checks input from outside (an ``int`` variable count;
non-negative ``int`` exponents; ``int`` or ``Fraction`` coefficients,
never a float), and the arithmetic builds its canonical results through
the trusted ``Poly._trusted``.  :func:`merge_terms` is the one merge of every term
map in the package, and :class:`_Frozen` the one base of the immutable
values (polynomials, chains, fields, operators and star products).

Variable indices in the public API are 1-based, matching the coordinate
labels x1..xn used throughout the package.  The exponent helpers
``Exponent`` and :func:`monomials_of_degree` live in :mod:`conhoch.model`,
which needs no polynomial arithmetic, and are re-exported here.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .model import Exponent, _check_int, monomials_of_degree  # noqa: F401 (re-exported)

Scalar = Union[int, Fraction]


def grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    """Sort key for the graded lexicographic term order (ascending)."""
    return (sum(exp), exp)


def merge_terms(pairs: Iterable[tuple]) -> dict:
    """The term map of (key, value) pairs: values of repeated keys summed,
    zero values and zero sums dropped.  Values are ``Fraction`` or
    :class:`Poly`."""
    out: dict = {}
    for key, value in pairs:
        acc = out.get(key)
        if acc is not None:
            value = acc + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def _scalar(value: Scalar) -> Fraction:
    """An exact coefficient from outside the program: an int or a
    Fraction; a float, a bool or anything else is refused."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficient {value!r} is not an int or a Fraction")
    return Fraction(value)


class _Frozen:
    """Base of the values whose ``_fields`` (in constructor order) are set
    once, by :meth:`_set`: rebinding or deleting one raises AttributeError,
    and copy, deepcopy and pickle rebuild the value through its constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Poly(_Frozen):
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = _fields = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] = ()):
        _check_int(nvars, "nvars", 0)
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars or not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponent {exp} needs {nvars} non-negative int entries")
            checked.append((exp, _scalar(coeff)))
        self._set(nvars, merge_terms(checked))

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, Fraction]) -> "Poly":
        """A polynomial owning terms already canonical (exponents of
        length nvars to nonzero Fractions); nothing is checked or copied."""
        self = object.__new__(cls)
        self._set(nvars, terms)
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, exp: Exponent, coeff: Scalar = 1) -> "Poly":
        return cls(len(exp), {tuple(exp): coeff})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        return Poly._trusted(self.nvars, merge_terms([*self.terms.items(), *other.terms.items()]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            q = _scalar(other)
            return Poly._trusted(self.nvars, merge_terms((e, c * q) for e, c in self.terms.items()))
        self._check(other)
        return Poly._trusted(self.nvars, merge_terms(
            (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items() for eb, cb in other.terms.items()))

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
        return Poly._trusted(self.nvars, {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: coeff * exp[i]
                                          for exp, coeff in self.terms.items() if exp[i]})

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
        return Poly._trusted(self.nvars, {e: c for e, c in self.terms.items()
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
        # a zero or constant polynomial equals its scalar, so it hashes as one
        if not any(map(any, self.terms)):
            return hash(self.terms.get((0,) * self.nvars, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        from .printer import poly_text
        return poly_text(self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"
