"""The slice count: cohomology dimensions of tagged slices and the
dimensions the degree-2 classification predicts.

The windows and letter-content blocks come from :mod:`conhoch.cohomology`,
read through the module (``cohomology._window``, ...) so that a
rebinding of those names reaches every call.  Relabelling letters inside
a coordinate block keeps every letter profile and commutes with the
differential, so blocks of one :func:`_pattern` have equal rank: one
block per pattern is eliminated, and each window's rank is cached.
Coefficients are read as exponent tuples and columns are integer, so
this module loads neither :mod:`conhoch.poly`, :mod:`fractions` nor the
symbol calculus; only the representatives of ``--reps`` import
:mod:`conhoch.decompose` and :mod:`conhoch.symbols`, on use.

The main entry points:

* :func:`hh_dimension` - cohomology dimension of a tagged slice in
  degree 1 or 2 (degree 0 is reported directly from the function class,
  see :func:`hh0_dimension`; the incoming differential in degree 1
  vanishes because the algebra is commutative).
* :func:`classified_hh2_dimension` - the dimension the degree-2
  classification predicts: observable (or null) bivectors plus words of
  distribution letters with one normal letter.
* :func:`cmd_hh_dim` and :func:`cmd_verify_theorem` - the handlers of
  the hh-dim and verify-theorem commands.  Their slice jobs can fan out
  over a worker pool; results are merged in slice-key order, so the
  output is identical for every pool width.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

from . import cohomology
from .errors import PreconditionError
from .linalg import sparse_rank
from .model import Exponent, FlatModel, FunctionClass, SubspaceTag, monomials_of_degree
from .words import Word, mv_monomial_member

if TYPE_CHECKING:  # the representatives import it on use
    from .symbols import SymbolChain


# ---------------------------------------------------------------------------
# slice cohomology dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pattern(model: FlatModel, content: Word) -> Tuple[Tuple[int, int], ...]:
    """The sorted (coordinate block, multiplicity) pairs of the letters of
    a letter content, blocks numbered 0, 1, 2 for D, D-perp, TC-perp: the
    content up to relabelling letters inside their blocks."""
    return tuple(sorted(((letter > model.n_null) + (letter > model.n_wobs), n)
                        for letter, n in Counter(content).items()))


@lru_cache(maxsize=None)
def _rank_of_d(model: FlatModel, arity: int, sym_degree: int, window: str) -> int:
    """Rank of the differential on an (arity, K) window, for every
    coefficient monomial whose tag and unit counts give this window: the
    differential never touches the coefficient.  Blocks of one
    :func:`_pattern` have equal rank, so one block per pattern is
    eliminated."""
    blocks = cohomology._letter_blocks(model, arity, sym_degree, window)
    ranks: Dict[tuple, int] = {}
    total = 0
    for content, words in blocks.items():
        key = _pattern(model, content)
        if key not in ranks:
            ranks[key] = sparse_rank(cohomology._image_columns(model, words))
        total += ranks[key]
    return total


def hh_dimension(model: FlatModel, tag: SubspaceTag, degree: int,
                 sym_degree: int, coeff_degree: int) -> int:
    """Cohomology dimension of the tagged (degree, K, c) slice.

    Degree 1: kernel of the differential on arity-1 chains (the incoming
    differential from functions vanishes by commutativity).  Degree 2:
    kernel on tagged arity-2 chains minus the rank coming from tagged
    arity-1 chains.  Both are assembled blockwise per coefficient
    monomial, which the differential never mixes, from the window ranks
    cached per :func:`_window` kind.
    """
    if degree not in (1, 2):
        raise PreconditionError("slice cohomology is computed in degrees 1 and 2")
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise PreconditionError("cohomology slices carry wobs/null tags")
    total = 0
    for gamma in monomials_of_degree(model.n_total, coeff_degree):
        d, _, t = model.unit_counts(gamma)
        window = (sym_degree, cohomology._window(tag.value, d, t))
        dim1 = len(cohomology._tagged_slots_for_units(model, 1, *window))
        if degree == 1:
            total += dim1 - _rank_of_d(model, 1, *window)
            continue
        dim2 = len(cohomology._tagged_slots_for_units(model, 2, *window))
        total += dim2 - _rank_of_d(model, 2, *window) - _rank_of_d(model, 1, *window)
    return total


def hh0_dimension(model: FlatModel, tag: SubspaceTag, coeff_degree: int) -> int:
    """Degree-0 cohomology of a coefficient slice: the function class
    itself (the coboundary of a function vanishes on the commutative
    algebra, so nothing is divided out).  The class is monomially
    spanned, so its monomials are counted without building one."""
    cls = {SubspaceTag.WOBS: FunctionClass.WOBS, SubspaceTag.NULL: FunctionClass.NULL}
    if tag not in cls:
        raise PreconditionError("degree 0 carries wobs/null tags")
    if coeff_degree < 0:
        raise ValueError("degree must be non-negative")
    return sum(1 for exp in monomials_of_degree(model.n_total, coeff_degree)
               if cls[tag].contains(model.monomial_class(exp)))


# ---------------------------------------------------------------------------
# the classified right-hand side
# ---------------------------------------------------------------------------


def bivector_slice_monomials(model: FlatModel, tag: SubspaceTag,
                             coeff_degree: int) -> List[Tuple[Exponent, Tuple[int, int]]]:
    return [(gamma, pair)
            for gamma in monomials_of_degree(model.n_total, coeff_degree)
            for pair in itertools.combinations(range(1, model.n_total + 1), 2)
            if mv_monomial_member(model, gamma, pair, tag)]


def normal_class_monomials(model: FlatModel, sym_degree: int,
                           coeff_degree: int) -> List[Tuple[Exponent, Tuple[int, ...]]]:
    """Monomials of the symmetric complement class: words of sym_degree-1
    distribution letters and exactly one normal letter, coefficients in
    the variables on C only."""
    if sym_degree < 2:
        return []
    normal = (0,) * (model.n_total - model.n_wobs)
    return [(gamma_c + normal, d_part + (u,))
            for gamma_c in monomials_of_degree(model.n_wobs, coeff_degree)
            for d_part in itertools.combinations_with_replacement(
                model.d_indices, sym_degree - 1)
            for u in model.tcperp_indices]


def classified_hh2_dimension(model: FlatModel, tag: SubspaceTag,
                             sym_degree: int, coeff_degree: int) -> int:
    """Dimension of the degree-2 classification in one (K, c) slice: the
    tagged bivectors contribute at K = 2 only (their chains have two
    degree-one slots) and the normal-word class contributes for every
    K >= 2, with K - 1 distribution letters."""
    if sym_degree < 2:
        raise PreconditionError("the degree-2 classification needs K >= 2")
    if tag not in (SubspaceTag.WOBS, SubspaceTag.NULL):
        raise PreconditionError("classification carries wobs/null tags")
    total = len(normal_class_monomials(model, sym_degree, coeff_degree))
    if sym_degree == 2:
        total += len(bivector_slice_monomials(model, tag, coeff_degree))
    return total


# ---------------------------------------------------------------------------
# slice reports
# ---------------------------------------------------------------------------


def hh2_slice_report(model: FlatModel, tag: SubspaceTag, sym_degree: int,
                     coeff_degree: int, with_representatives: bool = False) -> dict:
    """Comparison record for one (K, c) slice of degree 2."""
    hh = hh_dimension(model, tag, 2, sym_degree, coeff_degree)
    rhs = classified_hh2_dimension(model, tag, sym_degree, coeff_degree)
    report = {
        "model": model,
        "tag": tag.value,
        "degree": 2,
        "K": sym_degree,
        "c": coeff_degree,
        "hh_dim": hh,
        "rhs_dim": rhs,
        "match": hh == rhs,
    }
    if with_representatives:
        from .decompose import bivector_slice_basis, normal_class_basis
        from .symbols import differential_d, hkr
        reps: List[SymbolChain] = []
        if sym_degree == 2:
            reps.extend(hkr(x) for x in bivector_slice_basis(model, tag, coeff_degree))
        reps.extend(differential_d(psi)
                    for psi in normal_class_basis(model, sym_degree, coeff_degree))
        report["representatives"] = reps
    return report


# ---------------------------------------------------------------------------
# the slice commands (jobs at top level, so pool workers can import them)
# ---------------------------------------------------------------------------


def _hh2_job(args) -> dict:
    dims, tag_value, sym_degree, coeff_degree, with_reps = args
    model = FlatModel(*dims)
    report = hh2_slice_report(model, SubspaceTag(tag_value), sym_degree, coeff_degree,
                              with_representatives=with_reps)
    row = dict(report, model=model._asdict())
    if with_reps:
        from . import serialize
        row["representatives"] = [serialize.chain_to_json(ch)
                                  for ch in report["representatives"]]
    return row


def _run_slice_jobs(jobs: List[tuple], workers: int) -> List[dict]:
    if workers <= 1 or len(jobs) <= 1:
        return [_hh2_job(j) for j in jobs]
    from multiprocessing import Pool
    with Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(_hh2_job, jobs)


def _hh_rows(model: FlatModel, tags: List[str], kmax: int, cmax: int, workers: int,
             with_reps: bool) -> List[dict]:
    jobs = [(
        (model.n_total, model.n_wobs, model.n_null), tag, K, c, with_reps)
        for tag in tags
        for K in range(2, kmax + 1)
        for c in range(0, cmax + 1)]
    return _run_slice_jobs(jobs, workers)


def cmd_hh_dim(model: FlatModel, args) -> dict:
    tag = SubspaceTag(args.tag or "wobs")
    if args.degree == 2:
        return {"rows": _hh_rows(model, [tag.value], args.kmax, args.cmax,
                                 args.jobs, with_reps=False)}
    head = {"model": model._asdict(), "tag": tag.value, "degree": args.degree}
    if args.degree == 0:
        rows = [dict(head, c=c, hh_dim=hh0_dimension(model, tag, c))
                for c in range(args.cmax + 1)]
    else:
        rows = [dict(head, K=K, c=c, hh_dim=hh_dimension(model, tag, 1, K, c))
                for K in range(1, args.kmax + 1) for c in range(args.cmax + 1)]
    return {"rows": rows}


def cmd_verify_theorem(model: FlatModel, args) -> dict:
    tags = [args.tag] if args.tag else ["wobs", "null"]
    rows = _hh_rows(model, tags, args.kmax, args.cmax, args.jobs, with_reps=args.reps)
    return {"rows": rows, "all_match": all(r["match"] for r in rows)}
