"""The flat constraint model, its function classes and the one membership rule.

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

This module owns the wobs/null decision: one rule decides a monomial
(:func:`_window`, :func:`_member` and :func:`_slot_profile`, applied to
one monomial by :func:`_monomial_rule`), and the classes of functions,
vector fields, multivectors, chains, operators and slices all read it.

The two tag enums live here: FunctionClass for functions and SubspaceTag
for the constraint subspaces of symbols, so the command line can parse
a tag without loading the symbol calculus.  So do the exponent helpers
(:data:`Exponent`, :func:`monomials_of_degree`) that :mod:`conhoch.poly`
re-exports: the slice count reads coefficient monomials as exponent
tuples and never builds a polynomial, so only the methods that do
import :class:`~conhoch.poly.Poly`, on first use.  Reducing a function
outside the observable class raises NotConstraintError, the one "not
observable" error, as reducing a multivector does.  :class:`_Checked`
is the one base of the checked records (:class:`FlatModel`, and
``Slice`` and ``CocycleClass`` in :mod:`conhoch.decompose`), and
:func:`_check_int` the one check of a size, grade, degree or order.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import InvariantError, ModelMismatchError, NotConstraintError, UnsupportedTagError

if TYPE_CHECKING:  # the methods that build polynomials import it on first use
    from .poly import Poly

Exponent = Tuple[int, ...]


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """All exponent tuples of the given total degree, in descending
    lexicographic order (so x1^d comes first); none for a negative
    degree.  Deterministic: the sorted variable multisets come in
    ascending order, and that order reverses on their exponents."""
    if degree < 0:
        return []
    return [tuple(map(c.count, range(nvars)))
            for c in itertools.combinations_with_replacement(range(nvars), degree)]


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


def _refuse_hatted(tag: SubspaceTag, what: str) -> None:
    """The one gate of the objects that carry only the wobs and null tags
    (multivectors, vector fields, operators and the slice counts): a
    hatted tag, or anything that is not a SubspaceTag, raises
    UnsupportedTagError."""
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        name = tag.value if isinstance(tag, SubspaceTag) else repr(tag)
        raise UnsupportedTagError(f"{what} carry only wobs/null tags, not {name}")


# ---------------------------------------------------------------------------
# the membership rule
#
# Every constraint subspace occurring here is spanned by monomials
# (coefficient monomial times a tuple of frame words), so membership of an
# arbitrary element is decided monomial by monomial.  The observable and
# null classes are the exact monomial characterisations of the defining
# operator-level conditions (observable arguments map to observables,
# and to nulls once one argument is null): worst-case argument analysis
# shows that a monomial is null precisely when its coefficient carries a
# normal variable or some slot word mixes distribution letters with no
# normal letter (such a slot annihilates every observable argument into
# the null class), and observable when additionally a coefficient free of
# distribution variables together with normal-letter-free words
# qualifies.  A function has no slot words, a vector field one word (i,)
# per component i; the tests check the rule against the definitions.
# ---------------------------------------------------------------------------


def _slot_profile(model: FlatModel, word: Sequence[int]) -> Tuple[int, int, int]:
    """Letter counts of a word by block: (d, dperp, tcperp)."""
    nd = sum(1 for i in word if i <= model.n_null)
    nt = sum(1 for i in word if i > model.n_wobs)
    return nd, len(word) - nd - nt, nt


def _window(tag: str, d_units: int, t_units: int) -> str:
    """The kind of window a tag takes with a coefficient of these unit
    counts: "total" (every tuple) when a normal unit makes every monomial
    null or the tag is total, "null" when wobs membership reduces to null
    membership (d >= 1), else "wobs"."""
    if tag == "total" or t_units >= 1:
        return "total"
    return "null" if tag == "null" or d_units >= 1 else "wobs"


def _member(window: str, profiles: Sequence[Tuple[int, int, int]]) -> bool:
    """Whether slot words with these letter profiles lie in a
    :func:`_window` kind.  Null: some word has a distribution letter and
    no normal letter.  Wobs: null, or no word has a normal letter."""
    return (window == "total" or any(nd >= 1 and nt == 0 for nd, _, nt in profiles)
            or window == "wobs" and all(nt == 0 for _, _, nt in profiles))


def _monomial_rule(model: FlatModel, tag: str, gamma: Exponent,
                   words: Sequence[Sequence[int]]) -> bool:
    """The rule on one monomial: coefficient exponent gamma, slot words."""
    d, _, t = model.unit_counts(gamma)
    return _member(_window(tag, d, t), [_slot_profile(model, w) for w in words])


def _check_int(value, name: str, least: Optional[int] = None, error=ValueError) -> None:
    """The one check of a size, grade, degree or order: raise ``error``
    unless it is an int (not a bool or a float), and at least ``least``."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be at least {least} (got {value})")


class _Checked:
    """Base of the namedtuples that state their invariants in ``_check``:
    the class call, ``_make``, ``_replace``, ``copy``, ``pickle`` and
    ``copy.replace`` all build through ``__new__``, which runs it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class FlatModel(_Checked, namedtuple("_Dimensions", "n_total n_wobs n_null")):
    """Dimension triple (n_total, n_wobs, n_null) of a flat constraint model."""

    __slots__ = ()

    def _check(self) -> None:
        for n in self:
            _check_int(n, "a dimension")
        if not (self.n_total >= self.n_wobs >= self.n_null >= 0):
            raise ValueError(f"need n_total >= n_wobs >= n_null >= 0, got {self}")
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")

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

    # -- function operations -----------------------------------------------

    def check_poly(self, f: Poly) -> None:
        """Refuse anything but a polynomial over this model's variables."""
        from .poly import Poly
        if not isinstance(f, Poly):
            raise ValueError(f"{f!r} is not a polynomial")
        if f.nvars != self.n_total:
            raise ValueError(f"polynomial over {f.nvars} variables does not "
                             f"match model with n_total={self.n_total}")

    def restrict_to_c(self, f: Poly) -> Poly:
        """Restriction to C: substitute 0 for every normal variable."""
        self.check_poly(f)
        return f.substitute_zero(range(self.n_wobs, self.n_total))

    def classify_function(self, f: Poly) -> FunctionClass:
        """Finest class of f: the first of NULL and WOBS whose rule keeps
        every monomial of f (with no slot words), else TOTAL."""
        self.check_poly(f)
        for cls in (FunctionClass.NULL, FunctionClass.WOBS):
            if all(_monomial_rule(self, cls.name.lower(), exp, ()) for exp in f.terms):
                return cls
        return FunctionClass.TOTAL

    def to_reduced(self, f: Poly, caller: str) -> Poly:
        """Restrict an observable coefficient to C and re-express it in the
        coordinates x_{n_null+1}..x_{n_wobs}, reindexed to 1..n_reduced:
        the one map of observables onto the reduced space, behind
        :meth:`reduce_function` and ``decompose.reduce_multivector``."""
        from .poly import Poly
        n = self.reduced_model().n_total
        pad = (0,) * (n - self.n_reduced)  # a reduced point keeps one coordinate
        terms = {}
        for exp, coeff in self.restrict_to_c(f).terms.items():
            # independence of the distribution variables is forced by the
            # observable condition; a violation would falsify the class
            if any(exp[: self.n_null]):
                raise InvariantError(
                    f"{caller}: an observable coefficient restricted to C "
                    f"depends on a distribution variable: {exp}")
            terms[exp[self.n_null : self.n_wobs] + pad] = coeff
        return Poly(n, terms)

    def reduce_function(self, f: Poly) -> Poly:
        """Image of an observable function on the reduced space; raises
        NotConstraintError outside the observable class."""
        if self.classify_function(f) is FunctionClass.TOTAL:
            raise NotConstraintError(f"function {f} is not observable")
        return self.to_reduced(f, "reduce_function")


def _same_model(a: FlatModel, b: FlatModel) -> None:
    """Refuse to combine symbols or vector fields over different models."""
    if a != b:
        raise ModelMismatchError(f"objects over different models {a} and {b}")

