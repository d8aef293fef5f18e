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

This module holds what star products run: :class:`MultiDiffOp` and its
evaluation, the Leibniz splittings of derivative words, the symbol of a
Gerstenhaber composition (:func:`compose_symbols`) and the fast
evaluation on monomial arguments.  The operator-level checks - the
Hochschild coboundary, the chain-map check, operator membership - and
the handlers of classify-operator and delta live in
:mod:`conhoch.hochschild`, so no star-product command compiles them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, Sequence, Tuple

from .model import FlatModel
from .poly import Exponent, Poly, monomials_of_degree
from .symbols import Slots, SymbolChain, Word, vee


class MultiDiffOp:
    """Multi-differential operator: its symbol plus evaluation.  The
    operator is determined by its symbol, so sums, scalings and zero
    tests are done on ``symbol``."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: SymbolChain):
        self.symbol = symbol

    @property
    def model(self) -> FlatModel:
        return self.symbol.model

    @property
    def arity(self) -> int:
        return self.symbol.arity

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

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiDiffOp) and self.symbol == other.symbol

    def __repr__(self) -> str:
        return f"Op[{self.symbol!r}]"


# ---------------------------------------------------------------------------
# Leibniz splittings and Gerstenhaber composition
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
# evaluation on monomial arguments
# ---------------------------------------------------------------------------


def monomial_argument_tuples(model: FlatModel, arity: int,
                             max_total_degree: int) -> Iterator[Tuple[Exponent, ...]]:
    """All tuples of monomial exponents with the given total degree bound,
    by total degree, then by the degrees of the arguments ascending."""
    nvars = model.n_total
    for total in range(max_total_degree + 1):
        for split in reversed(monomials_of_degree(arity, total)):
            pools = [monomials_of_degree(nvars, d) for d in split]
            yield from itertools.product(*pools)


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
