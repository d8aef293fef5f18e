"""Polynomial vector fields: the Lie bracket and constraint membership.

A :class:`VectorField` holds one polynomial component per coordinate
(component i multiplies d_i).  Membership in the observable and null
classes is decided from the definitions, on the components restricted
to C, not per monomial, so this leaf module needs no slot word: it
imports only errors, model and poly.  The flat connection of
:mod:`conhoch.diffops` and the decoder ``serialize.field_from_json``
import it on use, and :func:`cmd_classify_field` is the handler of the
classify-field command, so no other command compiles this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import UnsupportedTagError
from .model import FlatModel, SubspaceTag, _same_model
from .poly import Poly


class VectorField:
    """Vector field with polynomial components (component i multiplies d_i)."""

    __slots__ = ("model", "components")

    def __init__(self, model: FlatModel, components: Sequence[Poly]):
        if len(components) != model.n_total:
            raise ValueError("need one component per coordinate")
        for f in components:
            model.check_poly(f)
        self.model = model
        self.components = tuple(components)

    @classmethod
    def zero(cls, model: FlatModel) -> "VectorField":
        return cls(model, [Poly.zero(model.n_total)] * model.n_total)

    @classmethod
    def frame(cls, model: FlatModel, index: int, coeff: Optional[Poly] = None) -> "VectorField":
        """coeff * d_index (1-based); coeff defaults to 1."""
        comps = [Poly.zero(model.n_total) for _ in range(model.n_total)]
        comps[index - 1] = Poly.constant(model.n_total, 1) if coeff is None else coeff
        return cls(model, comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_model(self.model, other.model)
        return VectorField(self.model, [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.model, [-a for a in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, f) -> "VectorField":
        return VectorField(self.model, [a * f for a in self.components])

    def apply(self, f: Poly) -> Poly:
        """Derivative of a function along the field."""
        out = Poly.zero(self.model.n_total)
        for i, comp in enumerate(self.components, start=1):
            if not comp.is_zero():
                out = out + comp * f.partial(i)
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

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
    """Constraint membership of a vector field.

    Null: the components transverse to the distribution vanish on C.
    Wobs: the components normal to C vanish on C, and the derivative of
    every non-distribution component along the distribution frame
    vanishes on C (the bracket condition tested against the frame, which
    generates the distribution sections as a module).
    """
    model = x.model
    if tag is SubspaceTag.NULL:
        return all(model.restrict_to_c(x.components[i - 1]).is_zero()
                   for i in range(model.n_null + 1, model.n_total + 1))
    if tag is SubspaceTag.WOBS:
        for i in model.tcperp_indices:
            if not model.restrict_to_c(x.components[i - 1]).is_zero():
                return False
        for a in model.d_indices:
            for i in range(model.n_null + 1, model.n_total + 1):
                if not model.restrict_to_c(x.components[i - 1].partial(a)).is_zero():
                    return False
        return True
    raise UnsupportedTagError(f"vector fields carry only wobs/null tags, not {tag.value}")


def cmd_classify_field(model, args) -> dict:
    from . import serialize
    x = serialize.field_from_json(serialize._load(args.infile), model)
    return {"wobs": vf_membership(x, SubspaceTag.WOBS),
            "null": vf_membership(x, SubspaceTag.NULL)}
