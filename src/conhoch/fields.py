"""Polynomial vector fields: the Lie bracket and constraint membership.

A :class:`VectorField` is its polynomial components, one per coordinate
(component i multiplies d_i), plus evaluation on functions; it has no
arithmetic of its own, so a sum of fields is built from the summed
components.  Membership in the observable and null
classes is decided per monomial by the one rule of :mod:`conhoch.model`:
a monomial of component i is a chain monomial with the single-letter
word (i,).  So this leaf module needs no slot word listing: it imports
only errors, model and poly.  The flat covariant derivative
of Y along X is ``VectorField(model, [X.apply(c) for c in
Y.components])``.  The decoder ``serialize.field_from_json`` imports
this module on use, and :func:`cmd_classify_field` is the handler of
the classify-field command, so no other command compiles it.
"""

from __future__ import annotations

from typing import Sequence

from .model import FlatModel, SubspaceTag, _monomial_rule, _refuse_hatted, _same_model
from .poly import Poly, _Frozen


class VectorField(_Frozen):
    """Vector field with polynomial components (component i multiplies d_i)."""

    __slots__ = _fields = ("model", "components")

    def __init__(self, model: FlatModel, components: Sequence[Poly]):
        if len(components) != model.n_total:
            raise ValueError("need one component per coordinate")
        for f in components:
            model.check_poly(f)
        self._set(model, tuple(components))

    def apply(self, f: Poly) -> Poly:
        """Derivative of a function along the field."""
        out = Poly.zero(self.model.n_total)
        for i, comp in enumerate(self.components, start=1):
            if not comp.is_zero():
                out = out + comp * f.partial(i)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField) and self.model == other.model
                and self.components == other.components)

    def __repr__(self) -> str:
        from . import printer, serialize
        return printer.to_text(serialize.field_to_json(self))


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y] of two vector fields."""
    _same_model(x.model, y.model)
    n = x.model.n_total
    comps = []
    for j in range(1, n + 1):
        term = Poly.zero(n)
        for i in range(1, n + 1):
            if not x.components[i - 1].is_zero():
                term = term + x.components[i - 1] * y.components[j - 1].partial(i)
            if not y.components[i - 1].is_zero():
                term = term - y.components[i - 1] * x.components[j - 1].partial(i)
        comps.append(term)
    return VectorField(x.model, comps)


def vf_membership(x: VectorField, tag: SubspaceTag) -> bool:
    """Constraint membership of a vector field, decided per monomial by
    the one rule of :mod:`conhoch.model`: a monomial of component i is a
    chain monomial with the single-letter word (i,)."""
    _refuse_hatted(tag, "vector fields")
    return all(_monomial_rule(x.model, tag.value, exp, [(i,)])
               for i, comp in enumerate(x.components, start=1) for exp in comp.terms)


def cmd_classify_field(model, args) -> dict:
    from . import serialize
    x = serialize.field_from_json(serialize._load(args.infile), model)
    return {"wobs": vf_membership(x, SubspaceTag.WOBS),
            "null": vf_membership(x, SubspaceTag.NULL)}
