"""Operator-level constraint membership and the handlers that read one
operator.

A normalized multi-differential operator is determined by its symbol
(Hochschild, Kostant and Rosenberg 1962; Gerstenhaber 1963), so its
Hochschild coboundary is the symbol differential
:func:`~conhoch.symbols.differential_d`: the delta command runs it on
the operator's symbol, and the package keeps no second coboundary.  The
operator-level formula is the test suite's oracle for it.

Star products evaluate operators but never classify one, so the star
routes do not compile this module.
"""

from __future__ import annotations

from .diffops import MultiDiffOp
from .model import SubspaceTag, _refuse_hatted
from .symbols import chain_membership, differential_d


def op_membership(op: MultiDiffOp, tag: SubspaceTag) -> bool:
    """Constraint membership of an operator, decided on the symbol side
    (the symbol calculus restricts to the tagged subspaces)."""
    _refuse_hatted(tag, "operators")
    return chain_membership(op.symbol, tag)


def cmd_classify_operator(model, args) -> dict:
    from . import serialize
    op = serialize.op_from_json(serialize._load(args.infile), model)
    return {"wobs": op_membership(op, SubspaceTag.WOBS),
            "null": op_membership(op, SubspaceTag.NULL)}


def cmd_delta(model, args) -> MultiDiffOp:
    from . import serialize
    op = serialize.op_from_json(serialize._load(args.infile), model)
    return MultiDiffOp(differential_d(op.symbol))
