"""Bigraded slice assembly of the constraint Hochschild complex.

The tensor differential preserves both the total symmetric degree K and
the homogeneous coefficient degree c, so all cohomology is computed in
the finite-dimensional (arity, K, c) windows.  Within a window both
gradings refine further: the differential never touches coefficients, so
every computation splits into independent blocks, one per coefficient
monomial.  Tagged slice bases consist of monomial chains (the tagged
subspaces are monomially spanned on the flat model).

Three more facts make the blocks small and few:

* One window per kind.  Membership in the wobs or null subspace reads
  the coefficient only through its unit counts (d, t) and each slot word
  only through its letter profile.  A normal unit (t >= 1) makes every
  chain null, and wobs reads d only as d = 0, so a (tag, d, t) window is
  one of three kinds (:func:`_window`): every tuple, the null tuples or
  the wobs tuples.  Windows are decided per word and cached per (model,
  arity, K, window), as are their ranks.
* Letter-content blocks.  The differential only splits slot words, so
  it keeps the multiset of letters across all slots (the letter
  content) and is block-diagonal over it; :func:`_image_columns` builds
  one integer sparse column per domain word.
* Pattern ranks.  Relabelling letters inside a coordinate block keeps
  every letter profile and commutes with the differential, so blocks
  with equal sorted multiplicities per coordinate block have equal
  rank: ranks eliminate one block per pattern, solvers every block.

Ranks and solves go through the sparse exact kernel of
:mod:`conhoch.linalg`; no step is modular or floating point.  The slice
count reads coefficients as exponent tuples and ranks integer columns,
so it loads neither :mod:`conhoch.poly` nor :mod:`fractions`.  The
solvers and the class representatives import the symbol calculus on
first use.

The main entry points:

* :func:`hh_dimension` - cohomology dimension of a tagged slice in
  degree 1 or 2 (degree 0 is reported directly from the function class,
  see :func:`hh0_dimension`; the incoming differential in degree 1
  vanishes because the algebra is commutative).
* :func:`classified_hh2_dimension` - the dimension the degree-2
  classification predicts: observable (or null) bivectors plus words of
  distribution letters with one normal letter.
* :func:`find_potential` and :func:`find_constraint_potential` - exact
  solves of D(psi) = phi; the constructive decomposition built on them
  lives in :mod:`conhoch.decompose`, with the chain bases of the slices
  (:class:`~conhoch.decompose.Slice`, ``slice_basis``, ``matrix_of_D``).
* :func:`cmd_hh_dim` and :func:`cmd_verify_theorem` - the command
  handlers of the slice count.  Their slice jobs can fan out over a
  worker pool; results are merged in slice-key order, so the output is
  identical for every pool width.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import NotCocycleError, NotConstraintError, PreconditionError
from .linalg import sparse_rank, sparse_solve
from .model import Exponent, FlatModel, FunctionClass, SubspaceTag, monomials_of_degree
from .words import (Slots, Word, _slot_profile, _tensor_member,
                    mv_monomial_member, unit_differential)

if TYPE_CHECKING:  # the solvers and the representatives import these on use
    from fractions import Fraction

    from .symbols import SymbolChain


def _positive_compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _positive_compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _all_slot_tuples(model: FlatModel, arity: int, sym_degree: int) -> Tuple[Slots, ...]:
    """Every tuple of slot words with the given arity and total symmetric
    degree, in deterministic order."""
    letters = range(1, model.n_total + 1)
    out: List[Slots] = []
    for split in _positive_compositions(sym_degree, arity):
        pools = [tuple(itertools.combinations_with_replacement(letters, k))
                 for k in split]
        out.extend(itertools.product(*pools))
    return tuple(out)


def _window(tag: str, d_units: int, t_units: int) -> str:
    """The kind of window a tag takes with a coefficient of these unit
    counts: "total" (every tuple) when a normal unit makes every chain
    null or the tag is total, "null" when wobs membership reduces to null
    membership (d >= 1), else "wobs"."""
    if tag == "total" or t_units >= 1:
        return "total"
    return "null" if tag == "null" or d_units >= 1 else "wobs"


@lru_cache(maxsize=None)
def _tagged_slots_for_units(model: FlatModel, arity: int, sym_degree: int,
                            window: str) -> Tuple[Slots, ...]:
    """Slot tuples of a :func:`_window` kind, in the order of
    :func:`_all_slot_tuples`; decided once per word profile and once per
    tuple of profiles."""
    all_slots = _all_slot_tuples(model, arity, sym_degree)
    if window == "total":
        return all_slots
    subtag = SubspaceTag(window)
    profile = {w: _slot_profile(model, w)
               for w in set(itertools.chain.from_iterable(all_slots))}.__getitem__
    member = lru_cache(maxsize=None)(lambda profiles: _tensor_member(0, 0, profiles, subtag))
    return tuple(s for s in all_slots if member(tuple(map(profile, s))))


# ---------------------------------------------------------------------------
# blocks of the differential and slice cohomology dimensions
# ---------------------------------------------------------------------------


def _letter_content(slots: Slots) -> Word:
    """Sorted letters of all slots together.  The differential only
    splits words, so it keeps this multiset and is block-diagonal over
    it."""
    return tuple(sorted(itertools.chain.from_iterable(slots)))


def _image_columns(model: FlatModel, words: Sequence[Slots]) -> List[Dict[Slots, int]]:
    """Images under the differential of the basis monomials with these
    slot words, as integer sparse columns keyed by image slot tuples.
    The coefficient monomial rides along unchanged, so callers pass only
    the words.  The model is part of the signature the callers share;
    the shuffles themselves do not depend on it."""
    return [unit_differential(slots) for slots in words]


@lru_cache(maxsize=None)
def _letter_blocks(model: FlatModel, arity: int, sym_degree: int,
                   window: str) -> Dict[Word, Tuple[Slots, ...]]:
    """The domain words of a window grouped by letter content, in
    enumeration order within each group.  Callers must not mutate the
    shared result."""
    blocks: Dict[Word, List[Slots]] = {}
    for slots in _tagged_slots_for_units(model, arity, sym_degree, window):
        blocks.setdefault(_letter_content(slots), []).append(slots)
    return {content: tuple(words) for content, words in blocks.items()}


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
    blocks = _letter_blocks(model, arity, sym_degree, window)
    ranks: Dict[tuple, int] = {}
    total = 0
    for content, words in blocks.items():
        key = _pattern(model, content)
        if key not in ranks:
            ranks[key] = sparse_rank(_image_columns(model, words))
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
        window = (sym_degree, _window(tag.value, d, t))
        dim1 = len(_tagged_slots_for_units(model, 1, *window))
        if degree == 1:
            total += dim1 - _rank_of_d(model, 1, *window)
            continue
        dim2 = len(_tagged_slots_for_units(model, 2, *window))
        total += dim2 - _rank_of_d(model, 2, *window) - _rank_of_d(model, 1, *window)
    return total


def hh0_dimension(model: FlatModel, tag: SubspaceTag, coeff_degree: int) -> int:
    """Degree-0 cohomology of a coefficient slice: the function class
    itself (the coboundary of a function vanishes on the commutative
    algebra, so nothing is divided out)."""
    cls = {SubspaceTag.WOBS: FunctionClass.WOBS, SubspaceTag.NULL: FunctionClass.NULL}
    if tag not in cls:
        raise PreconditionError("degree 0 carries wobs/null tags")
    return len(model.function_slice_basis(cls[tag], coeff_degree))


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
# exact solves against the differential
# ---------------------------------------------------------------------------

# The solvers build chains, so they belong with decompose; they stay here
# only because the benchmark's tracer wraps cohomology._solve_d by name.


def _solve_d(rhs: SymbolChain, tag: Optional[SubspaceTag]) -> Optional[SymbolChain]:
    """Solve D(psi) = rhs for an arity rhs.arity - 1 chain, blockwise per
    (symmetric degree, coefficient monomial) and, inside, per letter
    content.  With tag None the domain is the full slice, otherwise the
    tagged slice.  Basic variables are the earliest independent domain
    columns and the others are 0, as in one solve over the whole
    (K, coefficient) block.  Returns None when some block has no
    solution."""
    from .poly import Poly
    from .symbols import SymbolChain
    model = rhs.model
    tag_name = tag.value if tag is not None else "total"
    blocks: Dict[Tuple[int, Exponent], Dict[Word, Dict[Slots, Fraction]]] = {}
    for gamma, slots, q in rhs.monomials():
        key = (sum(len(w) for w in slots), gamma)
        blocks.setdefault(key, {}).setdefault(_letter_content(slots), {})[slots] = q
    solution_terms: List[Tuple[Slots, Poly]] = []
    for (sym_degree, gamma), targets in sorted(blocks.items()):
        d, _, t = model.unit_counts(gamma)
        domain = _letter_blocks(model, rhs.arity - 1, sym_degree, _window(tag_name, d, t))
        for content, target in targets.items():
            words = domain.get(content, ())
            columns = _image_columns(model, words)
            solution = sparse_solve(columns, target)
            if solution is None:
                return None
            for slots, q in zip(words, solution):
                if q:
                    solution_terms.append((slots, Poly.monomial(gamma, q)))
    return SymbolChain(model, rhs.arity - 1, solution_terms)


def find_constraint_potential(phi: SymbolChain) -> Optional[SymbolChain]:
    """Exact solve of D(psi) = phi with psi restricted to the observable
    arity-1 slice; None exactly when no observable potential exists (the
    class of phi is nontrivial)."""
    _require_closed_constraint(phi)
    return _solve_d(phi, SubspaceTag.WOBS)


def find_potential(phi: SymbolChain) -> Optional[SymbolChain]:
    """Exact solve of D(psi) = phi over the full (untagged) slice."""
    from .symbols import differential_d
    if phi.arity < 2:
        raise PreconditionError("a potential needs a chain of arity at least 2")
    if not differential_d(phi).is_zero():
        raise NotCocycleError("chain is not closed")
    return _solve_d(phi, None)


def _require_closed_constraint(phi: SymbolChain) -> None:
    from .symbols import chain_membership, differential_d
    if phi.arity != 2:
        raise PreconditionError("expected an arity-2 chain")
    if not chain_membership(phi, SubspaceTag.WOBS):
        raise NotConstraintError("chain is not in the observable subspace")
    if not differential_d(phi).is_zero():
        raise NotCocycleError("chain is not closed")


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
