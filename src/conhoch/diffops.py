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

This module holds what star products run: :class:`MultiDiffOp` (two
operators are equal when their symbols are, by ``poly._Frozen``), the
spread of a derivative word over several factors (from the one splitting
table ``words._word_splits``), the symbol of a Gerstenhaber composition
(:func:`compose_symbols`) and the one evaluation kernel
:func:`apply_to_monomials`, which evaluates operator words on monomial
arguments by exponent arithmetic; ``MultiDiffOp.apply`` is its
multilinear extension to polynomial arguments.  Each result is merged
once by ``merge_terms``.
The operator-level checks - the Hochschild coboundary, the chain-map
check, operator membership - and the handlers of classify-operator and
delta live in :mod:`conhoch.hochschild`, so no star-product command
compiles them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, Sequence, Tuple

from .model import FlatModel
from .poly import Exponent, Poly, _Frozen, merge_terms, monomials_of_degree
from .symbols import SymbolChain, Word, vee
from .words import _word_splits


class MultiDiffOp(_Frozen):
    """Multi-differential operator: its symbol plus evaluation.  The
    operator is determined by its symbol, so sums, scalings and zero
    tests are done on ``symbol``."""

    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol: SymbolChain):
        if not isinstance(symbol, SymbolChain):
            raise ValueError(f"{symbol!r} is not a symbol chain")
        self._set(symbol)

    @property
    def model(self) -> FlatModel:
        return self.symbol.model

    @property
    def arity(self) -> int:
        return self.symbol.arity

    def apply(self, fs: Sequence[Poly]) -> Poly:
        """Evaluate on a tuple of polynomials (one per argument slot): the
        multilinear extension of :func:`apply_to_monomials`, over every
        tuple of the arguments' terms."""
        if len(fs) != self.arity:
            raise ValueError(f"operator of arity {self.arity} applied to {len(fs)} arguments")
        for f in fs:
            self.model.check_poly(f)
        pairs = []
        for args in itertools.product(*(f.terms.items() for f in fs)):
            exps, coeffs = zip(*args)
            q = math.prod(coeffs)
            pairs.extend((e, v * q) for e, v in apply_to_monomials(self, exps).items())
        return Poly._trusted(self.model.n_total, merge_terms(pairs))

    def __repr__(self) -> str:
        return f"Op[{self.symbol!r}]"


# ---------------------------------------------------------------------------
# Leibniz spreads and Gerstenhaber composition
# ---------------------------------------------------------------------------


def _leibniz_spread(word: Word, parts: int) -> Iterator[Tuple[Tuple[Word, ...], int]]:
    """All splittings of a derivative word over a product of ``parts``
    factors, with the multinomial multiplicity."""
    if parts == 1:
        yield (word,), 1
        return
    for left, right, mult in _word_splits(word):
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
    pairs = []
    for outer_slots, a in outer.terms.items():
        head, tail = outer_slots[:i], outer_slots[i + 1:]
        spreads = list(_leibniz_spread(outer_slots[i], inner.arity + 1))
        for inner_slots, b in inner.terms.items():
            for (on_coeff, *on_slots), mult in spreads:
                coeff = b.partial_word(on_coeff)
                if coeff.is_zero():
                    continue
                key = head + tuple(vee(s, u) for s, u in zip(inner_slots, on_slots)) + tail
                pairs.append((key, a * coeff * mult))
    return outer._like(merge_terms(pairs), outer.arity + inner.arity - 1)


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
    pairs = []
    for slots, coeff in op.symbol.terms.items():
        factor = 1
        residual = [0] * op.model.n_total
        for word, arg in zip(slots, args):
            exps = list(arg)
            for letter in word:
                factor *= exps[letter - 1]  # 0 once a letter finds no power
                exps[letter - 1] -= 1
            if not factor:
                break
            for pos, e in enumerate(exps):
                residual[pos] += e
        else:
            pairs.extend((tuple(r + e for r, e in zip(residual, exp)), q * factor)
                         for exp, q in coeff.terms.items())
    return merge_terms(pairs)
