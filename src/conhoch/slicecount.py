"""The slice count: cohomology dimensions of tagged slices and the
dimensions the degree-2 classification predicts.

Every count reads the one membership rule of :mod:`conhoch.model`: the
coefficient's unit counts pick a window kind (``_window``), and the slot
words, none for a function, are tested against it (``_member``).  The
one gate of :mod:`conhoch.model` refuses a hatted tag.  The
letter-content blocks come from :mod:`conhoch.cohomology`, read through
the module (``cohomology._content_words``, ...) so that a rebinding of
those names reaches every call.  Relabelling letters inside a coordinate
block keeps every letter profile and commutes with the differential, so
blocks of one pattern have equal size and rank: :func:`_window_dims` builds and ranks
one block per pattern, times its number of contents, and lists no window
whole.  Coefficients are read as exponent tuples and columns are
integer, so this module loads neither :mod:`conhoch.poly`,
:mod:`fractions` nor the symbol calculus; only the representatives of
``--reps`` import :mod:`conhoch.decompose`, :mod:`conhoch.multivector`
and :mod:`conhoch.symbols`, on use.

The main entry points:

* :func:`hh_dimension` - cohomology dimension of a tagged slice in
  degree 1 or 2 (degree 0 is reported directly from the function class,
  see :func:`hh0_dimension`; the incoming differential in degree 1
  vanishes because the algebra is commutative).
* :func:`classified_hh2_dimension` - the dimension the degree-2
  classification predicts: observable (or null) bivectors plus words of
  distribution letters with one normal letter.
* :func:`cmd_hh_dim` and :func:`cmd_verify_theorem` - the handlers of
  the hh-dim and verify-theorem commands.  They report the degree-2
  slices in (tag, K, c) order, one after another in this process.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

from . import cohomology
from .errors import PreconditionError
from .linalg import sparse_rank
from .model import (Exponent, FlatModel, SubspaceTag, _check_int, _monomial_rule,
                    _refuse_hatted, _window, monomials_of_degree)
from .words import Word, mv_members

if TYPE_CHECKING:  # the representatives import it on use
    from .symbols import SymbolChain


# ---------------------------------------------------------------------------
# slice cohomology dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _patterns(model: FlatModel, sym_degree: int) -> Tuple[Tuple[int, Word], ...]:
    """The letter contents of a symmetric degree grouped by pattern, the
    sorted (coordinate block, multiplicity) pairs of their letters with
    blocks numbered 0, 1, 2 for D, D-perp, TC-perp: a content up to
    relabelling letters inside their blocks.  Per pattern: how many
    contents have it, and the first of them."""
    table: Dict[tuple, List] = {}
    for content in cohomology._contents(model, sym_degree):
        pattern = tuple(sorted(((letter > model.n_null) + (letter > model.n_wobs), n)
                               for letter, n in Counter(content).items()))
        table.setdefault(pattern, [0, content])[0] += 1
    return tuple(map(tuple, table.values()))


@lru_cache(maxsize=None)
def _window_dims(model: FlatModel, arity: int, sym_degree: int,
                 window: str) -> Tuple[int, int]:
    """Size and rank of the differential on an (arity, K) window, for
    every coefficient monomial whose tag and unit counts give this
    window (the differential never touches the coefficient)."""
    size = rank = 0
    for count, content in _patterns(model, sym_degree):
        words = cohomology._content_words(model, arity, content, window)
        if words:
            size += count * len(words)
            rank += count * sparse_rank(cohomology._image_columns(model, words))
    return size, rank


def hh_dimension(model: FlatModel, tag: SubspaceTag, degree: int,
                 sym_degree: int, coeff_degree: int) -> int:
    """Cohomology dimension of the tagged (degree, K, c) slice.

    Degree 1: kernel of the differential on arity-1 chains (the incoming
    differential from functions vanishes by commutativity).  Degree 2:
    kernel on tagged arity-2 chains minus the rank coming from tagged
    arity-1 chains.  Both are assembled blockwise per coefficient
    monomial, which the differential never mixes, from the window sizes
    and ranks cached per :func:`_window` kind.
    """
    if degree not in (1, 2):
        raise PreconditionError("slice cohomology is computed in degrees 1 and 2")
    for value in (degree, sym_degree, coeff_degree):
        _check_int(value, "a degree", 0)
    _refuse_hatted(tag, "cohomology slices")
    total = 0
    for gamma in monomials_of_degree(model.n_total, coeff_degree):
        d, _, t = model.unit_counts(gamma)
        window = (sym_degree, _window(tag.value, d, t))
        size, rank = _window_dims(model, degree, *window)
        incoming = _window_dims(model, 1, *window)[1] if degree == 2 else 0
        total += size - rank - incoming
    return total


def hh0_dimension(model: FlatModel, tag: SubspaceTag, coeff_degree: int) -> int:
    """Degree-0 cohomology of a coefficient slice: the function class
    itself (the coboundary of a function vanishes on the commutative
    algebra, so nothing is divided out).  The class is monomially
    spanned, and a function monomial is a monomial with no slot words,
    so the membership rule counts them without building one."""
    _refuse_hatted(tag, "function slices")
    _check_int(coeff_degree, "a degree", 0)
    return sum(_monomial_rule(model, tag.value, exp, ())
               for exp in monomials_of_degree(model.n_total, coeff_degree))


# ---------------------------------------------------------------------------
# the classified right-hand side
# ---------------------------------------------------------------------------


def bivector_slice_monomials(model: FlatModel, tag: SubspaceTag,
                             coeff_degree: int) -> List[Tuple[Exponent, Tuple[int, int]]]:
    return mv_members(model, tag, itertools.product(
        monomials_of_degree(model.n_total, coeff_degree),
        itertools.combinations(range(1, model.n_total + 1), 2)))


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
    for value in (sym_degree, coeff_degree):
        _check_int(value, "a degree", 0)
    if sym_degree < 2:
        raise PreconditionError("the degree-2 classification needs K >= 2")
    _refuse_hatted(tag, "classified slices")
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
        from .multivector import hkr
        from .symbols import differential_d
        reps: List[SymbolChain] = []
        if sym_degree == 2:
            reps.extend(hkr(x) for x in bivector_slice_basis(model, tag, coeff_degree))
        reps.extend(differential_d(psi)
                    for psi in normal_class_basis(model, sym_degree, coeff_degree))
        report["representatives"] = reps
    return report


# ---------------------------------------------------------------------------
# the slice commands
# ---------------------------------------------------------------------------


def _hh_rows(model: FlatModel, tags: List[str], kmax: int, cmax: int,
             with_reps: bool) -> List[dict]:
    """The degree-2 slice reports in (tag, K, c) order as report rows;
    ``cli.emit_report`` encodes the representatives' chains."""
    rows = []
    for tag, K, c in itertools.product(tags, range(2, kmax + 1), range(cmax + 1)):
        row = hh2_slice_report(model, SubspaceTag(tag), K, c, with_representatives=with_reps)
        row["model"] = model._asdict()
        rows.append(row)
    return rows


def cmd_hh_dim(model: FlatModel, args) -> dict:
    tag = SubspaceTag(args.tag or "wobs")
    if args.degree == 2:
        return {"rows": _hh_rows(model, [tag.value], args.kmax, args.cmax,
                                 with_reps=False)}
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
    rows = _hh_rows(model, tags, args.kmax, args.cmax, with_reps=args.reps)
    return {"rows": rows, "all_match": all(r["match"] for r in rows)}
