"""Exact computation of constraint Hochschild cohomology on flat models.

The package computes, with exact rational arithmetic, the low-degree
Hochschild cohomology of the function algebra of a flat constraint model
(an ambient coordinate space, an embedded coordinate subspace and a
coordinate distribution on it), classifies the degree-2 classes by an
observable bivector plus symmetric normal-word data, and applies the
classification to infinitesimal star products compatible with
reduction.

The public names below are loaded on first access (PEP 562), each from
the module that defines it, so a command that needs only the decoders
does not import the symbol, cohomology or star-product modules.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("ConhochError", "InvariantError", "ModelMismatchError",
               "NotClosedError", "NotConstraintError", "PreconditionError",
               "SolveFailureError", "UnsupportedTagError"),
    "model": ("FlatModel", "FunctionClass", "SubspaceTag", "monomials_of_degree"),
    "poly": ("Poly",),
    "fields": ("VectorField", "bracket", "vf_membership"),
    "symbols": ("SymbolChain", "chain_membership", "differential_d", "monomial_member",
                "vee"),
    "multivector": ("MultiVector", "coisotropy_check", "hkr", "mv_membership", "wedge"),
    "decompose": ("CocycleClass", "CocycleDecomposition", "Slice", "bivector_slice_basis",
                  "class_maps", "decompose_2cocycle", "decompose_sym",
                  "decompose_tensor2", "matrix_of_D", "normal_class_basis", "pr1",
                  "pr1_top", "reduce_multivector", "slice_basis"),
    "diffops": ("MultiDiffOp",),
    "hochschild": ("op_membership",),
    "cohomology": ("find_constraint_potential", "find_potential"),
    "slicecount": ("classified_hh2_dimension", "hh0_dimension", "hh2_slice_report",
                   "hh_dimension"),
    "starprod": ("OMITTED_BRACKET_PREFACTOR", "AssociativityViolation",
                 "TruncatedStar", "associator", "check_associativity",
                 "classify_infinitesimal", "equivalence_report",
                 "is_constraint_star", "poisson_from_star"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
