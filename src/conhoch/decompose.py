"""Degree-1 projections, canonical flat-model splittings of chains and
the constructive decomposition of degree-2 cocycles.

The classification of degree-2 cocycles reads a cocycle through these
maps: the projection of an arity-1 chain onto symmetric degree one, the
bivector of the slotwise degree-1 part of an arity-2 chain, the
splitting of chains into an observable-span part and a part built from
prolonged normal directions, and the reduction of observable
multivectors to the reduced model (NotConstraintError for any other).
:func:`decompose_2cocycle` splits a closed observable 2-chain into a
coboundary, an antisymmetric bivector part and a symmetric normal-word
part, whose class is the checked record :class:`CocycleClass`.  The
chain bases of the slices (the checked record :class:`Slice`,
:func:`slice_basis`, :func:`matrix_of_D` into the slice of arity + 1,
the bivector and normal-word class bases) live here too, as the slice
count never builds a chain.  Those functions and
:func:`decompose_2cocycle` import :mod:`conhoch.cohomology` (and with it
the elimination kernel) on first use, and the class bases take their
monomials from :mod:`conhoch.slicecount`, so reducing a multivector
compiles none of them.  :func:`cmd_decompose_cocycle` is the handler of
the decompose-cocycle command.  Neither the start-up route of the CLI
nor the slice count loads this module.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import InvariantError, NotConstraintError, SolveFailureError
from .model import (Exponent, FlatModel, SubspaceTag, _Checked, _check_int, _slot_profile,
                    _window, monomials_of_degree)
from .poly import Poly
from .multivector import MultiVector, hkr, mv_membership
from .symbols import SymbolChain, chain_membership, monomial_member
from .words import Slots


def pr1(chain: SymbolChain) -> SymbolChain:
    """Projection of an arity-1 chain onto symmetric degree 1."""
    if chain.arity != 1:
        raise ValueError("pr1 acts on arity-1 chains")
    return chain.sym_degree_part(1)


def pr1_top(chain: SymbolChain) -> MultiVector:
    """Wedge of the slotwise degree-1 projections of an arity-2 chain:
    keeps only terms whose both slots have symmetric degree one and
    antisymmetrises them into a bivector."""
    if chain.arity != 2:
        raise ValueError("pr1_top acts on arity-2 chains")
    out = MultiVector.zero(chain.model, 2)
    for (w1, w2), coeff in chain.terms.items():
        if len(w1) == 1 and len(w2) == 1:
            out = out + MultiVector.wedge_of_frames(chain.model, (w1[0], w2[0]), coeff)
    return out


def decompose_sym(chain: SymbolChain) -> Tuple[SymbolChain, SymbolChain]:
    """Split an arity-1 chain into (observable-span part, prolonged-normal
    part).  A monomial goes to the second component exactly when it lies
    in the total_not_wobs block (its word contains a normal letter while
    its coefficient is a function on C), as in :func:`decompose_tensor2`;
    everything else goes to the first.  The split is exact: the two parts
    always sum back to the input."""
    if chain.arity != 1:
        raise ValueError("decompose_sym acts on arity-1 chains")
    normal, rest = chain.split(lambda gamma, slots: monomial_member(
        chain.model, gamma, slots, SubspaceTag.TOTAL_NOT_WOBS))
    return rest, normal


class Tensor2Decomposition(NamedTuple):
    """Canonical splitting of an arity-2 chain.

    ``function_wobs_part`` + ``total_not_wobs_part`` always rebuild the
    input.  For null inputs, ``vanishing_part`` + ``null_not_van_part``
    rebuild it as well; otherwise those two are None.
    """

    function_wobs_part: SymbolChain
    total_not_wobs_part: SymbolChain
    vanishing_part: Optional[SymbolChain]
    null_not_van_part: Optional[SymbolChain]


def decompose_tensor2(chain: SymbolChain) -> Tensor2Decomposition:
    """Split an arity-2 chain along the flat-model block structure: the
    complement component collects monomials with C-coefficients whose
    slot words avoid distribution letters with at least one normal
    letter.  For null inputs, additionally split off the part whose
    coefficients vanish on C; the remainder then lies in the null
    complement block (checked)."""
    if chain.arity != 2:
        raise ValueError("decompose_tensor2 acts on arity-2 chains")
    model = chain.model
    tnw_chain, fw_chain = chain.split(lambda gamma, slots: monomial_member(
        model, gamma, slots, SubspaceTag.TOTAL_NOT_WOBS))

    van_chain = nnv_chain = None
    if chain_membership(chain, SubspaceTag.NULL):
        van_chain, nnv_chain = chain.split(lambda gamma, _: model.unit_counts(gamma)[2] >= 1)
        # for genuine null chains the C-coefficient remainder lies in the
        # null complement block; anything else would contradict nullness
        if not chain_membership(nnv_chain, SubspaceTag.NULL_NOT_VAN):
            raise InvariantError("decompose_tensor2: the C-coefficient part "
                                 f"{nnv_chain!r} of a null chain is not in the "
                                 "null_not_van block")
    return Tensor2Decomposition(fw_chain, tnw_chain, van_chain, nnv_chain)


def reduce_multivector(x: MultiVector) -> MultiVector:
    """Image of an observable multivector on the reduced model: restrict
    the coefficients to C, drop every term touching a distribution or
    normal direction, and reindex to the reduced coordinates.  Raises
    NotConstraintError outside the observable class."""
    if not mv_membership(x, SubspaceTag.WOBS):
        raise NotConstraintError("multivector is not observable")
    model = x.model
    terms = [(tuple(i - model.n_null for i in idx),
              model.to_reduced(coeff, f"reduce_multivector at {idx}"))
             for idx, coeff in x.terms.items()
             if all(model.n_null < i <= model.n_wobs for i in idx)]
    return MultiVector(model.reduced_model(), x.degree, terms)


# ---------------------------------------------------------------------------
# cocycle classes and the constructive decomposition
# ---------------------------------------------------------------------------


class CocycleClass(_Checked, namedtuple("_ClassFields", "bivector normal_part")):
    """Representative of a degree-2 class: an observable bivector plus a
    chain of distribution words with one normal letter each."""

    __slots__ = ()

    def _check(self) -> None:
        if self.bivector.degree != 2 or self.normal_part.arity != 1:
            raise ValueError("need a bivector and an arity-1 chain")
        if not mv_membership(self.bivector, SubspaceTag.WOBS):
            raise NotConstraintError("bivector is not observable")
        model = self.normal_part.model
        for gamma, (word,), _ in self.normal_part.monomials():
            if len(word) < 2:
                raise ValueError("normal-part words need symmetric degree >= 2")
            _, np_, nt = _slot_profile(model, word)
            if nt != 1 or np_:
                raise ValueError(
                    f"word {word} is not distribution letters with one normal letter")
            if model.unit_counts(gamma)[2] != 0:
                raise ValueError("normal-part coefficients must only use variables on C")


class CocycleDecomposition(NamedTuple):
    """Exact splitting phi = D(potential) + hkr(bivector) + D(normal part)
    of a closed observable 2-chain."""

    cocycle_class: CocycleClass
    potential: SymbolChain


def decompose_2cocycle(phi: SymbolChain) -> CocycleDecomposition:
    """Split a closed observable arity-2 chain per the degree-2
    classification.

    The bivector is the antisymmetrised degree-(1,1) projection; the
    remainder is solved exactly against the differential over the full
    arity-1 slice (unique in symmetric degrees >= 2), and the solution
    splits canonically into an observable potential and the normal-word
    class representative.  A failure of the solve or of the split's
    membership guarantees would be a counterexample to the
    classification and raises SolveFailureError.
    """
    from . import cohomology
    # imported per call, as cohomology._solve_d is looked up per call, so
    # that bench/tracer.py's rebinding of these names reaches the calls
    from .symbols import chain_membership, differential_d
    cohomology._require_closed_constraint(phi)
    bivector = pr1_top(phi)
    rhs = phi - hkr(bivector)
    psi = cohomology._solve_d(rhs, None)
    if psi is None:
        raise SolveFailureError("no potential for the symmetric remainder; "
                                "this contradicts the degree-2 classification")
    potential, normal = decompose_sym(psi)
    try:
        # the class checks its bivector (observable, as the top part of an
        # observable chain always is) and its normal-word part
        cls = CocycleClass(bivector, normal - pr1(normal))
    except ValueError as exc:
        raise SolveFailureError(f"class representative escaped its class: {exc}") from exc
    if not chain_membership(potential, SubspaceTag.WOBS):
        raise SolveFailureError("potential component escaped the observable slice")
    rebuilt = (differential_d(potential) + hkr(bivector)
               + differential_d(cls.normal_part))
    if rebuilt != phi:
        raise SolveFailureError("decomposition failed to rebuild its input")
    return CocycleDecomposition(cls, potential)


def class_maps(cls: CocycleClass) -> Tuple[MultiVector, MultiVector]:
    """The two morphisms out of an observable degree-2 class: the ambient
    bivector, and its image on the reduced model."""
    return cls.bivector, reduce_multivector(cls.bivector)


def cmd_decompose_cocycle(model, args) -> dict:
    from . import serialize
    chain = serialize.chain_from_json(serialize._load(args.infile), model)
    dec = decompose_2cocycle(chain)
    ambient, reduced = class_maps(dec.cocycle_class)
    return {
        "class": {"X": serialize.multivector_to_json(dec.cocycle_class.bivector),
                  "psi": serialize.chain_to_json(dec.cocycle_class.normal_part)},
        "potential": serialize.chain_to_json(dec.potential),
        "ambient_bivector": serialize.multivector_to_json(ambient),
        "reduced_bivector": serialize.multivector_to_json(reduced),
    }


# ---------------------------------------------------------------------------
# chain bases of the slices and the matrix of the differential
# ---------------------------------------------------------------------------

SLICE_TAGS = ("total", "wobs", "null")


class Slice(_Checked, namedtuple("_SliceFields", "model arity sym_degree coeff_degree tag",
                                 defaults=("total",))):
    """A finite-dimensional window of the symbol complex: fixed arity,
    total symmetric degree, homogeneous coefficient degree and tag.
    The differential maps the (n, K, c) slice into (n+1, K, c)."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.model, FlatModel):
            raise ValueError(f"a slice needs a FlatModel, got {self.model!r}")
        for name, value, least in zip(self._fields[1:4], self[1:4], (1, 1, 0)):
            _check_int(value, name, least)
        if self.tag not in SLICE_TAGS:
            raise ValueError(f"slice tag must be one of {SLICE_TAGS}")


def slice_monomials(slc: Slice) -> List[Tuple[Exponent, Slots]]:
    """Monomials spanning the tagged slice, coefficient-major, in
    deterministic order: the slot tuples of the window that the slice
    count ranks."""
    from . import cohomology
    out: List[Tuple[Exponent, Slots]] = []
    for gamma in monomials_of_degree(slc.model.n_total, slc.coeff_degree):
        d, _, t = slc.model.unit_counts(gamma)
        window = _window(slc.tag, d, t)
        for slots in cohomology._tagged_slots_for_units(slc.model, slc.arity,
                                                        slc.sym_degree, window):
            out.append((gamma, slots))
    return out


def slice_basis(slc: Slice) -> List[SymbolChain]:
    """Basis of the tagged slice; the spanning monomials are linearly
    independent coordinates, so they are already a basis."""
    return [SymbolChain.from_term(slc.model, slots, Poly.monomial(gamma))
            for gamma, slots in slice_monomials(slc)]


def matrix_of_D(domain: Slice) -> List[Dict[int, int]]:
    """Matrix of the differential from a tagged slice into the slice of
    arity + 1 with the same model, degrees and tag, in the deterministic
    monomial bases, as the sparse integer columns that
    :func:`~conhoch.linalg.sparse_rank` takes: one dict per domain
    monomial, keyed by row index in the codomain's ``slice_monomials``.
    An image outside the codomain slice would break the tagged
    subcomplex property and raises InvariantError."""
    from . import cohomology
    codomain = domain._replace(arity=domain.arity + 1)
    dom = slice_monomials(domain)
    index = {key: i for i, key in enumerate(slice_monomials(codomain))}
    columns: List[Dict[int, int]] = []
    for (gamma, _), col in zip(dom, cohomology._image_columns(domain.model,
                                                               [s for _, s in dom])):
        rows: Dict[int, int] = {}
        for s2, value in col.items():
            i = index.get((gamma, s2))
            if i is None:
                raise InvariantError(
                    f"matrix_of_D: differential left the tagged slice at {(gamma, s2)}; "
                    "the tagged subspaces would fail to form a subcomplex")
            rows[i] = value
        columns.append(rows)
    return columns


def bivector_slice_basis(model: FlatModel, tag: SubspaceTag,
                         coeff_degree: int) -> List[MultiVector]:
    from .slicecount import bivector_slice_monomials
    return [MultiVector(model, 2, {pair: Poly.monomial(gamma)})
            for gamma, pair in bivector_slice_monomials(model, tag, coeff_degree)]


def normal_class_basis(model: FlatModel, sym_degree: int,
                       coeff_degree: int) -> List[SymbolChain]:
    from .slicecount import normal_class_monomials
    return [SymbolChain.from_term(model, [word], Poly.monomial(gamma))
            for gamma, word in normal_class_monomials(model, sym_degree, coeff_degree)]
