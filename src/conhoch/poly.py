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
never a float), ``coefficient`` reads an exponent the same way, and the
arithmetic builds its canonical results through the trusted
``Poly._trusted``.  :class:`_Frozen` owns the value semantics of the
immutable values (polynomials, chains, multivectors, fields, operators,
star products): fields set once, term maps stored read-only, equality by
type and fields, no hash, copies through the checked constructor, and
the ``--format table`` repr of each class that names an encoder.
:class:`_Linear` is the one arithmetic of the term maps (polynomials,
chains, multivectors) and :func:`merge_terms` their one merge; each adds
and subtracts with its own class only, and is false exactly when zero.

Variable indices in the public API are 1-based, matching the coordinate
labels x1..xn used throughout the package.  The exponent helpers
``Exponent`` and :func:`monomials_of_degree` live in :mod:`conhoch.model`,
which needs no polynomial arithmetic, and are re-exported here.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, List, Tuple, Union

from .model import Exponent, _check_int, monomials_of_degree  # noqa: F401 (re-exported)

Scalar = Union[int, Fraction]


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


def _exponent(exp, nvars: int) -> Exponent:
    """An exponent from outside the program: nvars non-negative ints."""
    exp = tuple(exp)
    if len(exp) != nvars or not all(type(e) is int and e >= 0 for e in exp):
        raise ValueError(f"exponent {exp} needs {nvars} non-negative int entries")
    return exp


def _scalar(value: Scalar) -> Fraction:
    """An exact coefficient from outside the program: an int or a
    Fraction; a float, a bool or anything else is refused."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficient {value!r} is not an int or a Fraction")
    return Fraction(value)


class _Frozen:
    """Base of every immutable value, and the one owner of value semantics.
    :meth:`_set` writes the ``_fields`` (in constructor order) once, a dict
    as a read-only ``MappingProxyType``; rebinding or deleting a field
    raises AttributeError; two values are equal when they have the same
    type and equal fields, and no value is hashable; copy, deepcopy and
    pickle rebuild the value through its constructor, from a plain copy of
    each read-only map.  A class that names a serialize encoder in
    ``_encoder`` (also what ``cli.emit_report`` encodes it by) has the
    ``--format table`` text of that encoding as its repr; any other keeps
    the default repr."""

    __slots__ = ()
    _encoder = ""

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            if type(value) is dict:
                value = MappingProxyType(value)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and all(
            getattr(self, name) == getattr(other, name) for name in self._fields)

    def __reduce__(self):
        values = [getattr(self, name) for name in self._fields]
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)

    def __repr__(self) -> str:
        if not self._encoder:
            return object.__repr__(self)
        from . import printer, serialize
        return printer.to_text(getattr(serialize, self._encoder)(self))


class _Linear(_Frozen):
    """Base of the term maps: ``+``, ``-``, :meth:`scale`, :meth:`is_zero`
    and truthiness, each result merged once and built by the class's
    trusted ``_like(terms)``.  Another class gets ``NotImplemented`` (so a
    TypeError); another frame, the class's ``_check_frame`` error."""

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_frame(other)
        return self._like(merge_terms([*self.terms.items(), *other.terms.items()]))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, q):
        """Every coefficient times q: an ``int`` or a ``Fraction``, or for
        a chain or multivector a polynomial over its model's variables."""
        if type(q) is not Poly or type(self) is Poly:
            q = _scalar(q)
        elif q.nvars != self.model.n_total:
            raise ValueError(f"polynomials over {self.model.n_total} and {q.nvars} variables")
        return self._like(merge_terms((k, v * q) for k, v in self.terms.items()))

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.terms)


class Poly(_Linear):
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = _fields = ("nvars", "terms")
    _encoder = "poly_to_json"

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] = ()):
        _check_int(nvars, "nvars", 0)
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._set(nvars, merge_terms((_exponent(exp, nvars), _scalar(coeff))
                                     for exp, coeff in items))

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, Fraction]) -> "Poly":
        """A polynomial owning terms already canonical (exponents of
        length nvars to nonzero Fractions); nothing is checked or copied."""
        self = object.__new__(cls)
        self._set(nvars, terms)
        return self

    def _like(self, terms: Dict[Exponent, Fraction]) -> "Poly":
        return Poly._trusted(self.nvars, terms)

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

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in canonical order: graded lexicographic, largest first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, exp: Exponent) -> Fraction:
        """The coefficient of x^exp; exp is read as the constructor reads it."""
        return self.terms.get(_exponent(exp, self.nvars), Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def _check_frame(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"polynomials over {self.nvars} and {other.nvars} variables")

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            self._check_frame(other)
            return Poly._trusted(self.nvars, merge_terms(
                (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
                for ea, ca in self.terms.items() for eb, cb in other.terms.items()))
        if isinstance(other, _Frozen):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

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
        """Iterated partial derivative along a word of 1-based indices;
        every index is checked, also after the derivative is zero, so the
        answer does not depend on the order of the word."""
        result = self
        for index in word:
            result = result.partial(index)
        return result

    def substitute_zero(self, positions: Iterable[int]) -> "Poly":
        """Set the variables at the given 0-based positions to zero."""
        pos = set(positions)
        return Poly._trusted(self.nvars, {e: c for e, c in self.terms.items()
                                          if all(e[p] == 0 for p in pos)})

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        from .printer import poly_text
        return poly_text(self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"
