"""Multi-differential operators on the flat model and their symbols.

On the flat model the standard coordinate frame is adapted to the
constraint structure and the flat connection (all Christoffel symbols
zero) is a torsion-free constraint covariant derivative.  The symbol
calculus it induces identifies a multi-differential operator with a
:class:`~conhoch.symbols.SymbolChain`: the basis word (d_{i1} v .. v
d_{ik}) acts on its argument slot as the iterated partial derivative,
and the polynomial coefficient multiplies the result.  Operators built
this way vanish on constants in every argument because every slot has
symmetric degree at least one.

The Hochschild coboundary is implemented here directly from its
operator-level formula (multiplication boundary terms plus alternating
argument merges, expanded on symbols through the Leibniz rule).  It is
therefore independent of the shuffle-coproduct differential on the
symbol side, and the equality Op(D phi) = delta(Op(phi)) is a genuine
cross-check between the two routes.

The handlers of classify-operator and delta live here.  The flat
connection imports :class:`~conhoch.fields.VectorField` when it runs,
so no operator or star-product command compiles the vector fields.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Dict, Iterator, NamedTuple, Sequence, Tuple

from .errors import InvariantError, ModelMismatchError, UnsupportedTagError
from .model import FlatModel
from .poly import Exponent, Poly, monomials_of_degree
from .symbols import (Slots, SubspaceTag, SymbolChain, Word, chain_membership,
                      differential_d, vee)

if TYPE_CHECKING:  # the flat connection imports it on use
    from .fields import VectorField


class MultiDiffOp:
    """Multi-differential operator, fully determined by its symbol."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: SymbolChain):
        self.symbol = symbol

    @property
    def model(self) -> FlatModel:
        return self.symbol.model

    @property
    def arity(self) -> int:
        return self.symbol.arity

    @classmethod
    def zero(cls, model: FlatModel, arity: int) -> "MultiDiffOp":
        return cls(SymbolChain.zero(model, arity))

    def apply(self, fs: Sequence[Poly]) -> Poly:
        """Evaluate on a tuple of polynomials (one per argument slot)."""
        if len(fs) != self.arity:
            raise ValueError(f"operator of arity {self.arity} applied to {len(fs)} arguments")
        for f in fs:
            self.model.check_poly(f)
        out = Poly.zero(self.model.n_total)
        for slots, coeff in self.symbol.terms.items():
            term = coeff
            for word, f in zip(slots, fs):
                term = term * f.partial_word(word)
                if term.is_zero():
                    break
            out = out + term
        return out

    def __add__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        return MultiDiffOp(self.symbol + other.symbol)

    def __sub__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        return MultiDiffOp(self.symbol - other.symbol)

    def __neg__(self) -> "MultiDiffOp":
        return MultiDiffOp(-self.symbol)

    def scale(self, q) -> "MultiDiffOp":
        return MultiDiffOp(self.symbol.scale(q))

    def is_zero(self) -> bool:
        return self.symbol.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiDiffOp) and self.symbol == other.symbol

    def __repr__(self) -> str:
        return f"Op[{self.symbol!r}]"


# ---------------------------------------------------------------------------
# flat connection and symmetrized derivatives
# ---------------------------------------------------------------------------


class FlatConnection:
    """The standard flat covariant derivative; Christoffel symbols vanish,
    so it is torsion-free, and on the flat model it satisfies the three
    constraint conditions (verified in the test suite on sampled
    fields)."""

    def __init__(self, model: FlatModel):
        self.model = model

    def covariant_derivative(self, x: VectorField, y: VectorField) -> VectorField:
        from .fields import VectorField
        if x.model != self.model or y.model != self.model:
            raise ModelMismatchError("fields over a different model")
        return VectorField(self.model, [x.apply(comp) for comp in y.components])


class SymCovTensor(NamedTuple):
    """Symmetrized k-th covariant derivative of a function; for the flat
    connection the entry at a sorted index multiset is the corresponding
    iterated partial derivative."""

    model: FlatModel
    degree: int
    entries: Dict[Word, Poly]

    def entry(self, word: Sequence[int]) -> Poly:
        key = tuple(sorted(word))
        return self.entries.get(key, Poly.zero(self.model.n_total))


def sym_cov_derivative(model: FlatModel, f: Poly, k: int) -> SymCovTensor:
    if k < 1:
        raise ValueError("derivative order must be positive")
    model.check_poly(f)
    entries: Dict[Word, Poly] = {}
    for word in itertools.combinations_with_replacement(range(1, model.n_total + 1), k):
        value = f.partial_word(word)
        if not value.is_zero():
            entries[word] = value
    return SymCovTensor(model, k, entries)


# ---------------------------------------------------------------------------
# Hochschild coboundary
# ---------------------------------------------------------------------------


def _leibniz_splits(word: Word) -> Iterator[Tuple[Word, Word, int]]:
    """All splittings of an iterated-derivative word over a product of two
    functions: sub-multiset, complement, multinomial multiplicity."""
    letters = sorted(set(word))
    mults = [word.count(v) for v in letters]
    for choice in itertools.product(*(range(m + 1) for m in mults)):
        left: Tuple[int, ...] = ()
        right: Tuple[int, ...] = ()
        multiplicity = 1
        for v, m, j in zip(letters, mults, choice):
            left += (v,) * j
            right += (v,) * (m - j)
            multiplicity *= comb(m, j)
        yield left, right, multiplicity


def hochschild_delta(op: MultiDiffOp) -> MultiDiffOp:
    """The Hochschild coboundary of a multi-differential operator.

    Computed from the operator-level formula

        (delta D)(f_0, .., f_n) = f_0 D(f_1, .., f_n)
            + sum_{i=0}^{n-1} (-1)^{i+1} D(f_0, .., f_i f_{i+1}, .., f_n)
            + (-1)^{n+1} D(f_0, .., f_{n-1}) f_n

    expanded on symbols via the Leibniz rule.  The expansion passes
    through terms with an empty derivative slot (plain multiplication by
    one argument); these cancel in the total because the operator
    vanishes on constants (checked: InvariantError otherwise).
    """
    n = op.arity
    model = op.model
    augmented: Dict[Slots, Poly] = {}

    def accumulate(key: Slots, value: Poly) -> None:
        acc = augmented.get(key)
        total = value if acc is None else acc + value
        if total.is_zero():
            augmented.pop(key, None)
        else:
            augmented[key] = total

    for slots, coeff in op.symbol.terms.items():
        accumulate(((),) + slots, coeff)
        sign_last = -1 if (n + 1) % 2 else 1
        accumulate(slots + ((),), coeff * sign_last)
        for i in range(n):
            sign = -1 if (i + 1) % 2 else 1
            for left, right, mult in _leibniz_splits(slots[i]):
                key = slots[:i] + (left, right) + slots[i + 1:]
                accumulate(key, coeff * (sign * mult))

    proper: Dict[Slots, Poly] = {}
    for key, value in augmented.items():
        if any(len(w) == 0 for w in key):
            raise InvariantError("hochschild_delta: coboundary of a normalized "
                                 f"operator kept a constant slot: {key}")
        proper[key] = value
    return MultiDiffOp(SymbolChain(model, n + 1, proper))


def _leibniz_spread(word: Word, parts: int) -> Iterator[Tuple[Tuple[Word, ...], int]]:
    """All splittings of a derivative word over a product of ``parts``
    factors, with the multinomial multiplicity."""
    if parts == 1:
        yield (word,), 1
        return
    for left, right, mult in _leibniz_splits(word):
        for rest, rest_mult in _leibniz_spread(right, parts - 1):
            yield (left,) + rest, mult * rest_mult


def compose_symbols(outer: SymbolChain, inner: SymbolChain, slot: int) -> SymbolChain:
    """Symbol of the Gerstenhaber composition outer o_slot inner: the
    operator that feeds inner's arguments through argument ``slot``
    (1-based) of outer, e.g. for two arity-2 chains slot 1 gives
    outer(inner(f, g), h) and slot 2 gives outer(f, inner(g, h)).

    The outer word at that slot acts on the inner term b * d^s1 f1 * ..
    by the Leibniz rule: one part differentiates the coefficient b, the
    others lengthen the inner words.  Inner words are nonempty, so no
    constant slot appears."""
    i = slot - 1
    terms: Dict[Slots, Poly] = {}
    for outer_slots, a in outer.terms.items():
        head, tail = outer_slots[:i], outer_slots[i + 1:]
        spreads = list(_leibniz_spread(outer_slots[i], inner.arity + 1))
        for inner_slots, b in inner.terms.items():
            for (on_coeff, *on_slots), mult in spreads:
                coeff = b.partial_word(on_coeff)
                if coeff.is_zero():
                    continue
                key = head + tuple(vee(s, u) for s, u in zip(inner_slots, on_slots)) + tail
                value = a * coeff * mult
                acc = terms.get(key)
                terms[key] = value if acc is None else acc + value
    return SymbolChain(outer.model, outer.arity + inner.arity - 1, terms)


# ---------------------------------------------------------------------------
# evaluation on monomial arguments and the chain-map check
# ---------------------------------------------------------------------------


def monomial_argument_tuples(model: FlatModel, arity: int,
                             max_total_degree: int) -> Iterator[Tuple[Exponent, ...]]:
    """All tuples of monomial exponents with the given total degree bound."""
    nvars = model.n_total
    for total in range(max_total_degree + 1):
        for split in _degree_splits(total, arity):
            pools = [monomials_of_degree(nvars, d) for d in split]
            yield from itertools.product(*pools)


def _degree_splits(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _degree_splits(total - head, parts - 1):
            yield (head,) + tail


def apply_to_monomials(op: MultiDiffOp, args: Sequence[Exponent]) -> Dict[Exponent, Fraction]:
    """Fast evaluation on monomial arguments; returns the result as a raw
    exponent-to-coefficient map."""
    result: Dict[Exponent, Fraction] = {}
    for slots, coeff in op.symbol.terms.items():
        factor = 1
        residual = [0] * op.model.n_total
        dead = False
        for word, arg in zip(slots, args):
            exps = list(arg)
            for letter in word:
                e = exps[letter - 1]
                if e == 0:
                    dead = True
                    break
                factor *= e
                exps[letter - 1] = e - 1
            if dead:
                break
            for pos, e in enumerate(exps):
                residual[pos] += e
        if dead:
            continue
        for exp, q in coeff.terms.items():
            key = tuple(r + e for r, e in zip(residual, exp))
            total = result.get(key, Fraction(0)) + q * factor
            if total:
                result[key] = total
            else:
                result.pop(key, None)
    return result


def chain_map_check(phi: SymbolChain) -> bool:
    """Verify Op(D phi) = delta(Op(phi)) exactly, on symbols: a normalized
    multi-differential operator is determined by its symbol (Hochschild,
    Kostant and Rosenberg 1962; Gerstenhaber 1963), and both sides are
    symbols already."""
    return differential_d(phi) == hochschild_delta(MultiDiffOp(phi)).symbol


# ---------------------------------------------------------------------------
# operator-level constraint membership
# ---------------------------------------------------------------------------


def op_membership(op: MultiDiffOp, tag: SubspaceTag) -> bool:
    """Constraint membership of an operator, decided on the symbol side
    (the symbol calculus restricts to the tagged subspaces)."""
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise UnsupportedTagError("operators carry only wobs/null tags")
    return chain_membership(op.symbol, tag)


# ---------------------------------------------------------------------------
# handlers of the commands that read one operator
# ---------------------------------------------------------------------------


def cmd_classify_operator(model, args) -> dict:
    from . import serialize
    op = serialize.op_from_json(serialize._load(args.infile), model)
    return {"wobs": op_membership(op, SubspaceTag.WOBS),
            "null": op_membership(op, SubspaceTag.NULL)}


def cmd_delta(model, args) -> dict:
    from . import serialize
    op = serialize.op_from_json(serialize._load(args.infile), model)
    return serialize.op_to_json(hochschild_delta(op))
