"""The flat constraint model and the three-level classification of functions.

A flat constraint model is the triple of dimensions (n_total, n_wobs,
n_null) describing the ambient space R^{n_total}, the embedded subspace
C = R^{n_wobs} (first n_wobs coordinates), and the distribution D on C
spanned by the first n_null coordinate directions.  The 1-based
coordinate indices split into three blocks:

    D block      = {1, .., n_null}            (distribution directions)
    D-perp block = {n_null+1, .., n_wobs}     (directions of C transverse to D)
    TC-perp block= {n_wobs+1, .., n_total}    (directions normal to C)

Polynomials stand in for smooth functions.  A function is *null* when it
vanishes on C, and *observable* ("wobs") when its derivatives along the
distribution vanish on C; observables form a subalgebra in which the
null functions are an ideal, and the quotient realises the functions on
the reduced space R^{n_wobs - n_null}.

The two tag enums live here: FunctionClass for functions and SubspaceTag
for the constraint subspaces of symbols, so the command line can parse
a tag without loading the symbol calculus.  So do the exponent helpers
(:data:`Exponent`, :func:`monomials_of_degree`) that :mod:`conhoch.poly`
re-exports: the slice count reads coefficient monomials as exponent
tuples and never builds a polynomial, so only the methods that do
import :class:`~conhoch.poly.Poly`, on first use.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Tuple

from .errors import InvariantError, ModelMismatchError, NotWobsError

if TYPE_CHECKING:  # the methods that build polynomials import it on first use
    from .poly import Poly

Exponent = Tuple[int, ...]


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """All exponent tuples of the given total degree, in descending
    lexicographic order (so x1^d comes first).  Deterministic."""
    if nvars == 0:
        return [()] if degree == 0 else []

    def rec(remaining: int, slots: int) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining, -1, -1):
            for tail in rec(remaining - head, slots - 1):
                yield (head,) + tail

    return list(rec(degree, nvars))


class FunctionClass(enum.Enum):
    """Finest class of a function: NULL subset of WOBS subset of TOTAL."""

    TOTAL = "Total"
    WOBS = "Wobs"
    NULL = "Null"

    def contains(self, other: "FunctionClass") -> bool:
        order = {FunctionClass.NULL: 0, FunctionClass.WOBS: 1, FunctionClass.TOTAL: 2}
        return order[other] <= order[self]


class SubspaceTag(enum.Enum):
    """Constraint subspaces of the symbol algebra.

    WOBS and NULL are defined at every arity.  The remaining four tags
    name the complement blocks built from sections over C of the three
    coordinate blocks; they exist at arity 1, and NULL_NOT_VAN /
    TOTAL_NOT_WOBS additionally at arity 2.
    """

    WOBS = "wobs"
    NULL = "null"
    NULL_NOT_VAN = "null_not_van"
    WOBS_NOT_NULL = "wobs_not_null"
    TOTAL_NOT_WOBS = "total_not_wobs"
    TOTAL_NOT_NULL = "total_not_null"


class _Dimensions(NamedTuple):
    n_total: int
    n_wobs: int
    n_null: int


class FlatModel(_Dimensions):
    """Dimension triple (n_total, n_wobs, n_null) of a flat constraint model."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.n_total >= self.n_wobs >= self.n_null >= 0):
            raise ValueError(f"need n_total >= n_wobs >= n_null >= 0, got {self}")
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        return self

    # -- index blocks (1-based, inclusive ranges) -------------------------

    @property
    def d_indices(self) -> range:
        return range(1, self.n_null + 1)

    @property
    def dperp_indices(self) -> range:
        return range(self.n_null + 1, self.n_wobs + 1)

    @property
    def tcperp_indices(self) -> range:
        return range(self.n_wobs + 1, self.n_total + 1)

    @property
    def n_reduced(self) -> int:
        return self.n_wobs - self.n_null

    def reduced_model(self) -> "FlatModel":
        n = self.n_reduced
        if n < 1:
            # the reduced space is a point; keep a 1-dimensional carrier so
            # polynomials remain representable (only constants occur)
            return FlatModel(1, 1, 1)
        return FlatModel(n, n, 0)

    # -- exponent helpers --------------------------------------------------

    def unit_counts(self, exp: Exponent) -> Tuple[int, int, int]:
        """Degrees of an exponent tuple split by block: (d, dperp, tcperp)."""
        d = sum(exp[: self.n_null])
        p = sum(exp[self.n_null : self.n_wobs])
        t = sum(exp[self.n_wobs :])
        return d, p, t

    def monomial_class(self, exp: Exponent) -> FunctionClass:
        """Class of a single monomial, decided combinatorially: null iff it
        contains a normal variable, observable iff it contains a normal
        variable or no distribution variable at all."""
        d, _, t = self.unit_counts(exp)
        if t >= 1:
            return FunctionClass.NULL
        if d == 0:
            return FunctionClass.WOBS
        return FunctionClass.TOTAL

    # -- function operations -----------------------------------------------

    def check_poly(self, f: Poly) -> None:
        if f.nvars != self.n_total:
            raise ValueError(f"polynomial over {f.nvars} variables does not "
                             f"match model with n_total={self.n_total}")

    def restrict_to_c(self, f: Poly) -> Poly:
        """Restriction to C: substitute 0 for every normal variable."""
        self.check_poly(f)
        return f.substitute_zero(range(self.n_wobs, self.n_total))

    def classify_function(self, f: Poly) -> FunctionClass:
        """Finest class of f, by the definitional criterion: null when the
        restriction to C vanishes, observable when every derivative along
        the distribution restricts to zero on C."""
        self.check_poly(f)
        if self.restrict_to_c(f).is_zero():
            return FunctionClass.NULL
        if all(self.restrict_to_c(f.partial(a)).is_zero() for a in self.d_indices):
            return FunctionClass.WOBS
        return FunctionClass.TOTAL

    def function_in_class(self, f: Poly, tag: FunctionClass) -> bool:
        return tag.contains(self.classify_function(f))

    def reduce_function(self, f: Poly) -> Poly:
        """Image of an observable function on the reduced space.

        Restricts to C and re-expresses the result in the coordinates
        x_{n_null+1}..x_{n_wobs}, reindexed to 1..n_reduced.  Raises
        NotWobsError outside the observable class.
        """
        from .poly import Poly
        if not self.function_in_class(f, FunctionClass.WOBS):
            raise NotWobsError(f"function {f} is not observable")
        restricted = self.restrict_to_c(f)
        reduced_model = self.reduced_model()
        terms = {}
        for exp, coeff in restricted.terms.items():
            # independence of the distribution variables is forced by the
            # observable condition; a violation would falsify the class
            if any(exp[: self.n_null]):
                raise InvariantError(
                    "reduce_function: observable function restricted to C "
                    f"depends on a distribution variable: {exp}")
            new = exp[self.n_null : self.n_wobs]
            new = new + (0,) * (reduced_model.n_total - len(new))
            terms[new] = coeff
        return Poly(reduced_model.n_total, terms)

    def function_slice_basis(self, tag: FunctionClass, degree: int) -> List[Poly]:
        """Monomial basis of the tag class among homogeneous polynomials of
        the given total degree, in canonical (descending grlex) order."""
        from .poly import Poly
        if degree < 0:
            raise ValueError("degree must be non-negative")
        basis = []
        for exp in monomials_of_degree(self.n_total, degree):
            if tag.contains(self.monomial_class(exp)):
                basis.append(Poly.monomial(exp))
        return basis


def _same_model(a: FlatModel, b: FlatModel) -> None:
    """Refuse to combine symbols or vector fields over different models."""
    if a != b:
        raise ModelMismatchError(f"objects over different models {a} and {b}")
