"""Operator-level checks: the Hochschild coboundary and constraint membership.

The Hochschild coboundary is implemented here directly from its
operator-level formula (multiplication boundary terms plus alternating
argument merges, expanded on symbols through the Leibniz splittings of
``words._word_splits`` and merged once by
:func:`~conhoch.poly.merge_terms`).  It is therefore independent of the
shuffle-coproduct differential on the symbol side, and the equality
Op(D phi) = delta(Op(phi)) (:func:`chain_map_check`) is a genuine
cross-check between the two routes.

This module also holds the constraint membership of operators and the
handlers of classify-operator and delta.  Star products evaluate
operators but never take a coboundary at operator level, so the star
routes do not compile this module.  :func:`op_membership` imports the
chain membership test when it runs.
"""

from __future__ import annotations

from .diffops import MultiDiffOp
from .errors import InvariantError
from .model import SubspaceTag, _refuse_hatted
from .poly import merge_terms
from .symbols import SymbolChain, differential_d
from .words import _word_splits


# ---------------------------------------------------------------------------
# Hochschild coboundary and the chain-map check
# ---------------------------------------------------------------------------


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
    pairs = []
    for slots, coeff in op.symbol.terms.items():
        pairs.append((((),) + slots, coeff))
        sign_last = -1 if (n + 1) % 2 else 1
        pairs.append((slots + ((),), coeff * sign_last))
        for i in range(n):
            sign = -1 if (i + 1) % 2 else 1
            for left, right, mult in _word_splits(slots[i]):
                key = slots[:i] + (left, right) + slots[i + 1:]
                pairs.append((key, coeff * (sign * mult)))

    terms = merge_terms(pairs)
    for key in terms:
        if any(len(w) == 0 for w in key):
            raise InvariantError("hochschild_delta: coboundary of a normalized "
                                 f"operator kept a constant slot: {key}")
    return MultiDiffOp(op.symbol._like(terms, n + 1))


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
    from .symbols import chain_membership
    _refuse_hatted(tag, "operators")
    return chain_membership(op.symbol, tag)


# ---------------------------------------------------------------------------
# handlers of the commands that read one operator
# ---------------------------------------------------------------------------


def cmd_classify_operator(model, args) -> dict:
    from . import serialize
    op = serialize.op_from_json(serialize._load(args.infile), model)
    return {"wobs": op_membership(op, SubspaceTag.WOBS),
            "null": op_membership(op, SubspaceTag.NULL)}


def cmd_delta(model, args) -> MultiDiffOp:
    from . import serialize
    return hochschild_delta(serialize.op_from_json(serialize._load(args.infile), model))
