"""Truncated formal star products and their order-by-order analysis.

A truncated star product of order k is the pointwise product plus k
bidifferential cochains C_1 .. C_k (one per power of the formal
parameter).  Because every cochain is represented by its symbol, it
vanishes on constants automatically, so f * 1 = f = 1 * f holds by
construction.

Implemented here: exact order-by-order associativity (the associator
as a symbol chain built from Gerstenhaber compositions), the constraint
property (every cochain observable), extraction of the first-order
antisymmetric bracket, the order-(k+1) equivalence report (plain and
constraint solves), and the classification of infinitesimal constraint star
products by a bivector plus a normal-word class.  The compatibility of
a bivector with the embedded submanifold (coisotropy) is a bivector
condition and lives in :mod:`conhoch.multivector`.

Convention: the usual bracket normalisation multiplies the
antisymmetrised first cochain by -i.  Coefficients here are rational,
so the extracted bivector omits that factor; see
``OMITTED_BRACKET_PREFACTOR``.  The factor never affects membership,
closedness, equivalence or classification, which are all linear.

Associativity is decided on symbols alone, so this module imports
cohomology (and with it the elimination kernel) only inside the
equivalence report, and decompose (and with it the multivectors) only
when a bracket is extracted or a class computed: star-check compiles
none of them, and no star command compiles the operator-level checks of
:mod:`conhoch.hochschild`.  The handlers of the
star-check, star-equiv and classify-star commands live here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .diffops import (MultiDiffOp, apply_to_monomials, compose_symbols,
                      monomial_argument_tuples)
from .errors import InvariantError, NotClosedError, PreconditionError
from .model import FlatModel, _check_int
from .poly import Poly, _Frozen
from .symbols import SubspaceTag, SymbolChain, chain_membership, differential_d

if TYPE_CHECKING:  # the bracket and the classification import decompose on first use
    from .decompose import CocycleClass
    from .multivector import MultiVector

#: the physics convention for the Poisson bracket carries this prefactor,
#: which has no home in rational arithmetic and is left off throughout
OMITTED_BRACKET_PREFACTOR = "-i"


class TruncatedStar(_Frozen):
    """Star product truncated at a finite order in the formal parameter."""

    __slots__ = _fields = ("model", "cochains")

    def __init__(self, model: FlatModel, cochains: Sequence[MultiDiffOp]):
        cochains = tuple(cochains)
        for c in cochains:
            if not isinstance(c, MultiDiffOp):
                raise PreconditionError(f"a cochain must be an operator, not {type(c).__name__}")
            if c.model != model:
                raise PreconditionError("cochain over a different model")
            if c.arity != 2:
                raise PreconditionError("star product cochains have two arguments")
        self._set(model, cochains)

    @property
    def order(self) -> int:
        return len(self.cochains)

    def cochain(self, r: int) -> MultiDiffOp:
        """C_r for 1 <= r <= order."""
        return self.cochains[r - 1]

    def apply(self, f: Poly, g: Poly) -> List[Poly]:
        """Coefficients of the product by formal-parameter order:
        entry 0 is f*g, entry r is C_r(f, g)."""
        return [f * g] + [c.apply([f, g]) for c in self.cochains]


class AssociativityViolation(NamedTuple):
    """Witness of an associativity defect at a given order."""

    order: int
    arguments: Tuple[Poly, Poly, Poly]
    defect: Poly


def _associativity_defect(star: TruncatedStar, order: int,
                          f: Poly, g: Poly, h: Poly) -> Poly:
    """Order-r coefficient of (f*g)*h - f*(g*h)."""

    def c_apply(r: int, a: Poly, b: Poly) -> Poly:
        return a * b if r == 0 else star.cochain(r).apply([a, b])

    defect = Poly.zero(star.model.n_total)
    for p in range(order + 1):
        q = order - p
        defect = defect + c_apply(p, c_apply(q, f, g), h)
        defect = defect - c_apply(p, f, c_apply(q, g, h))
    return defect


def associator(star: TruncatedStar, order: int) -> SymbolChain:
    """Symbol of the order-r coefficient of (f*g)*h - f*(g*h), an arity-3
    chain.  The two terms with C_0 (the pointwise product) make up minus
    the Hochschild coboundary of C_r, whose symbol is -D(C_r); the rest
    are Gerstenhaber compositions:

        A_r = -D(C_r) + sum_{p+q=r; p,q>=1} (C_p o_1 C_q - C_p o_2 C_q)."""
    if not 1 <= order <= star.order:
        raise PreconditionError(f"no order-{order} cochain in a star of order {star.order}")
    chain = -differential_d(star.cochain(order).symbol)
    for p in range(1, order):
        outer = star.cochain(p).symbol
        inner = star.cochain(order - p).symbol
        chain = chain + compose_symbols(outer, inner, 1) - compose_symbols(outer, inner, 2)
    return chain


def _witness(star: TruncatedStar, order: int,
             chain: SymbolChain) -> AssociativityViolation:
    """First monomial triple, in evaluation-window order, on which the
    nonzero associator chain does not vanish.  A term of the chain with
    minimal words is nonzero on the monomials of its own words, so the
    search ends within total degree chain.max_total_order().  The
    reported defect is evaluated directly from the cochains."""
    window = chain.max_total_order()
    op = MultiDiffOp(chain)
    for args in monomial_argument_tuples(star.model, 3, window):
        if apply_to_monomials(op, args):
            polys = tuple(Poly.monomial(e) for e in args)
            defect = _associativity_defect(star, order, *polys)
            if defect.is_zero():
                raise InvariantError(
                    f"order-{order} associator is nonzero at {args} "
                    "but the defect evaluated from the cochains vanishes")
            return AssociativityViolation(order, polys, defect)
    raise InvariantError(f"nonzero order-{order} associator vanishes on "
                         f"every monomial triple up to total degree {window}")


def check_associativity(star: TruncatedStar,
                        up_to: Optional[int] = None) -> Optional[AssociativityViolation]:
    """Decide associativity exactly, order by order: the lowest order whose
    associator chain is nonzero is violated, with a witness triple; None
    when every order up to ``up_to`` (default: the truncation order)
    vanishes identically."""
    up_to = star.order if up_to is None else up_to
    _check_int(up_to, "up_to", 0, PreconditionError)
    if up_to > star.order:
        raise PreconditionError("cannot check beyond the truncation order")
    for order in range(1, up_to + 1):
        chain = associator(star, order)
        if not chain.is_zero():
            return _witness(star, order, chain)
    return None


def is_constraint_star(star: TruncatedStar) -> bool:
    """A star product is constraint when every cochain is observable."""
    return all(chain_membership(c.symbol, SubspaceTag.WOBS) for c in star.cochains)


def poisson_from_star(star: TruncatedStar) -> MultiVector:
    """Bivector of the first-order bracket: the degree-(1,1) projection of
    the antisymmetric part of C_1's symbol.  For closed C_1 the
    antisymmetric part has order (1, 1), so nothing is lost.  Raises
    NotClosedError when C_1 is not a cocycle."""
    if star.order < 1:
        raise PreconditionError("star product has no first-order cochain")
    symbol = star.cochain(1).symbol
    if not differential_d(symbol).is_zero():
        raise NotClosedError("first-order cochain is not closed")
    from .decompose import pr1_top
    antisym = (symbol - symbol.transpose()).scale(Fraction(1, 2))
    return pr1_top(antisym)


def equivalence_report(a: TruncatedStar, b: TruncatedStar, k: int) -> dict:
    """Plain and constraint order-(k+1) equivalence of two constraint
    star products agreeing up to order k, in one record.  "S" is a map
    whose coboundary is C_{k+1} - C'_{k+1}: an observable one when the
    difference is constraint-exact, else a plain one, else None.  The
    preconditions are checked once for both solves."""
    if k < 0:
        raise PreconditionError("agreement order must be non-negative")
    if a.model != b.model:
        raise PreconditionError("star products over different models")
    if a.order < k + 1 or b.order < k + 1:
        raise PreconditionError(f"both star products must carry order {k + 1}")
    for r in range(1, k + 1):
        if a.cochain(r) != b.cochain(r):
            raise PreconditionError(f"star products differ already at order {r}")
    if not (is_constraint_star(a) and is_constraint_star(b)):
        raise PreconditionError("both star products must be constraint")
    if check_associativity(a, k + 1) is not None or check_associativity(b, k + 1) is not None:
        raise PreconditionError(f"star products must be associative to order {k + 1}")
    diff = a.cochain(k + 1).symbol - b.cochain(k + 1).symbol
    if diff.is_zero():  # the zero map, without loading the solvers
        plain = constraint = SymbolChain.zero(a.model, 1)
    else:
        # the preconditions make diff a closed constraint 2-cochain, so it
        # goes to the solver ungated; _solve_d is looked up per call so
        # that bench/tracer.py's rebinding reaches it
        from . import cohomology
        plain = cohomology._solve_d(diff, None)
        constraint = cohomology._solve_d(diff, SubspaceTag.WOBS)
    s = constraint if constraint is not None else plain
    return {"order": k + 1,
            "plain_equivalent": plain is not None,
            "constraint_equivalent": constraint is not None,
            "S": None if s is None else MultiDiffOp(s)}


def classify_infinitesimal(c1: MultiDiffOp) -> CocycleClass:
    """Constraint equivalence class of an infinitesimal constraint star
    product with first cochain c1: the observable bivector and the
    normal-word chain of its cocycle decomposition, which checks that
    c1 is a closed constraint 2-cochain."""
    from .decompose import decompose_2cocycle
    return decompose_2cocycle(c1.symbol).cocycle_class


# ---------------------------------------------------------------------------
# handlers of the commands that read star products
# ---------------------------------------------------------------------------


def cmd_star_check(model, args) -> dict:
    from . import serialize
    star = serialize.star_from_json(serialize._load(args.infile), model)
    violation = check_associativity(star)
    result = {"constraint": is_constraint_star(star),
              "associative": violation is None}
    if violation is not None:
        result["violation"] = {
            "order": violation.order,
            "arguments": [serialize.poly_to_json(p) for p in violation.arguments],
            "defect": serialize.poly_to_json(violation.defect),
        }
    return result


def cmd_star_equiv(model, args) -> dict:
    from . import serialize
    data = serialize._load(args.infile)
    try:
        a = serialize.star_from_json(data["star"], model)
        b = serialize.star_from_json(data["star_prime"], model)
        agree_to = serialize.json_integer(data.get("agree_to", 0), "'agree_to'")
    except KeyError as exc:
        raise ValueError(f"star-equiv input needs 'star' and 'star_prime': {exc}") from exc
    report = equivalence_report(a, b, agree_to)
    s = report["S"]
    return {**report, "S": None if s is None else serialize.op_to_json(s)}


def cmd_classify_star(model, args) -> dict:
    from . import serialize
    star = serialize.star_from_json(serialize._load(args.infile), model)
    if star.order < 1:
        raise ValueError("classification needs a first-order cochain")
    cls = classify_infinitesimal(star.cochain(1))
    return {"X": serialize.multivector_to_json(cls.bivector),
            "psi": serialize.chain_to_json(cls.normal_part)}
