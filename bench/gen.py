"""Seeded inputs and output checks for the four benchmark workloads.

``generate(workload, seed)`` returns the commands of one workload pass.
Each command carries the arguments passed to ``python -m conhoch``, the
JSON input files it reads (written into the work directory before the
first pass) and a check of its output.  Inputs are built with the
library, but every expected answer comes from how the input was built
or from an exact identity (D∘D = 0, δ(Op φ) = Op(Dφ), rebuild of a
decomposition), never from re-running the command under test.

The README worked examples (input files, commands and printed output,
copied verbatim from README.md) are kept in readme_cases.json and
compared byte for byte.

The same seed gives byte-identical files and arguments; the shape of
each workload (models, slices, coefficient monomials, term counts) is
fixed, and the seed picks words, rational coefficients and command
order inside that shape, so the work per pass is the same for every
seed and run-to-run spread comes from the machine, not the inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from conhoch import serialize
from conhoch.model import FlatModel
from conhoch.poly import Poly, monomials_of_degree
from conhoch.symbols import MultiVector, SymbolChain, differential_d, hkr

WORKLOADS = ("hh-grid", "cocycle-solve", "star-equiv", "cli-flows")

README_CASES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "readme_cases.json")


@dataclass
class Result:
    """What one CLI command produced."""

    code: int
    stdout: str
    workdir: str

    def json(self):
        return json.loads(self.stdout)

    def read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return fh.read()


Check = Callable[[Result], Optional[str]]


@dataclass
class Command:
    label: str
    argv: List[str]
    check: Check
    files: Dict[str, str] = field(default_factory=dict)
    #: a defect the program is known to have; the command still counts
    #: as failed while the defect stands
    known_defect: Optional[str] = None


# ---------------------------------------------------------------------------
# JSON helpers and canonical term maps
# ---------------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _model_arg(m: FlatModel) -> str:
    return f"{m.n_total},{m.n_wobs},{m.n_null}"


def _poly_terms(data: dict) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for t in data["terms"]:
        key = tuple(t["exp"])
        out[key] = out.get(key, Fraction(0)) + Fraction(*t["coeff"])
    return {k: v for k, v in out.items() if v}


def _chain_terms(data: dict) -> Dict[tuple, Fraction]:
    """Chain JSON as {(slots, exponent): coefficient}, independent of the
    order in which terms were printed."""
    out: Dict[tuple, Fraction] = {}
    for t in data["terms"]:
        slots = tuple(tuple(w) for w in t["slots"])
        for exp, q in _poly_terms(t["coeff_poly"]).items():
            out[(slots, exp)] = out.get((slots, exp), Fraction(0)) + q
    return {k: v for k, v in out.items() if v}


def _mv_terms(data: dict) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for t in data["terms"]:
        idx = tuple(t["indices"])
        for exp, q in _poly_terms(t["coeff_poly"]).items():
            out[(idx, exp)] = out.get((idx, exp), Fraction(0)) + q
    return {k: v for k, v in out.items() if v}


def _expect_code(res: Result, code: int = 0) -> Optional[str]:
    return None if res.code == code else f"exit code {res.code}, expected {code}"


def _json_or_error(res: Result):
    err = _expect_code(res)
    if err:
        return None, err
    try:
        return res.json(), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _check_json(expected: dict) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        return None if got == expected else f"got {got}, expected {expected}"
    return check


def _check_text(expected: str) -> Check:
    def check(res: Result) -> Optional[str]:
        err = _expect_code(res)
        if err:
            return err
        return None if res.stdout == expected else "output differs from the expected text"
    return check


# ---------------------------------------------------------------------------
# random building blocks, each observable / null by construction
# ---------------------------------------------------------------------------


def _q(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _letters(m: FlatModel, word) -> Tuple[int, int, int]:
    """(distribution, transverse-in-C, normal) letter counts of a word."""
    nd = sum(1 for i in word if i <= m.n_null)
    nt = sum(1 for i in word if i > m.n_wobs)
    return nd, len(word) - nd - nt, nt


def _observable_word(m: FlatModel, gamma, word) -> bool:
    """A monomial arity-1 chain is observable when its coefficient has a
    normal variable, or its word has a distribution letter and no normal
    letter (both make it null), or neither coefficient nor word touch
    the distribution and the word has no normal letter."""
    d, _, t = m.unit_counts(gamma)
    nd, _, nt = _letters(m, word)
    return t >= 1 or (nd >= 1 and nt == 0) or (d == 0 and nt == 0)


def _pick(rng: random.Random, pool: Sequence, k: int) -> list:
    return rng.sample(list(pool), min(k, len(pool)))


def _spread(seq: Sequence, k: int) -> list:
    """k evenly spaced members of seq: a fixed choice, so the number and
    kind of elimination blocks an input touches do not depend on the seed."""
    k = min(k, len(seq))
    return [seq[i * len(seq) // k] for i in range(k)]


def _observable_chain(rng, m: FlatModel, K: int, c: int, nterms: int) -> SymbolChain:
    """One observable word (seeded) on each of nterms fixed coefficient
    monomials."""
    words = list(itertools.combinations_with_replacement(range(1, m.n_total + 1), K))
    terms = []
    for g in _spread(monomials_of_degree(m.n_total, c), nterms):
        w = rng.choice([w for w in words if _observable_word(m, g, w)])
        terms.append(((w,), Poly.monomial(g, _q(rng))))
    return SymbolChain(m, 1, terms)


def _normal_chain(rng, m: FlatModel, K: int, c: int, nterms: int) -> SymbolChain:
    """Words of K-1 distribution letters and one normal letter with
    coefficients on C: the symmetric degree-2 class representatives."""
    gammas = [g + (0,) * (m.n_total - m.n_wobs) for g in monomials_of_degree(m.n_wobs, c)]
    words = [d + (u,) for d in itertools.combinations_with_replacement(m.d_indices, K - 1)
             for u in m.tcperp_indices]
    return SymbolChain(m, 1, [((rng.choice(words),), Poly.monomial(g, _q(rng)))
                              for g in _spread(gammas, nterms)])


def _observable_bivector(rng, m: FlatModel, c: int, nterms: int) -> MultiVector:
    """Bivector terms with a distribution index or a normal coefficient
    variable; both put the term in the null, hence observable, class."""
    pool = [(g, p) for g in monomials_of_degree(m.n_total, c)
            for p in itertools.combinations(range(1, m.n_total + 1), 2)
            if p[0] <= m.n_null or m.unit_counts(g)[2] >= 1]
    return MultiVector(m, 2, [(p, Poly.monomial(g, _q(rng)))
                              for g, p in _pick(rng, pool, nterms)])


def _star_json(cochains: Sequence[SymbolChain]) -> dict:
    return {"order": len(cochains),
            "cochains": [{"symbol": serialize.chain_to_json(c)} for c in cochains]}


# ---------------------------------------------------------------------------
# hh-grid
# ---------------------------------------------------------------------------

#: (model, kmax, cmax): the README run and the two slow slices
HH_GRID = ((FlatModel(3, 2, 1), 3, 2), (FlatModel(4, 3, 2), 4, 1), (FlatModel(5, 3, 2), 3, 2))


def _check_verify(nrows: int) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        rows = got.get("rows", [])
        if len(rows) != nrows:
            return f"{len(rows)} rows, expected {nrows}"
        if got.get("all_match") is not True:
            return "all_match is not true"
        bad = [r for r in rows if r["hh_dim"] != r["rhs_dim"] or r["match"] is not True]
        return f"{len(bad)} rows disagree with the classification" if bad else None
    return check


def _hh_grid(rng: random.Random) -> List[Command]:
    cmds = []
    for m, kmax, cmax in HH_GRID:
        for tag in ("wobs", "null"):
            argv = ["verify-theorem", "--model", _model_arg(m), "--tag", tag,
                    "--kmax", str(kmax), "--cmax", str(cmax)]
            cmds.append(Command("verify-theorem", argv,
                                _check_verify((kmax - 1) * (cmax + 1))))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# cocycle-solve
# ---------------------------------------------------------------------------

#: (model, K, c, observable terms, normal terms, bivector terms)
COCYCLES = (
    (FlatModel(4, 3, 2), 3, 1, 3, 1, 1),
    (FlatModel(4, 3, 2), 4, 2, 4, 0, 0),
    (FlatModel(4, 3, 2), 2, 2, 2, 1, 0),
    (FlatModel(5, 3, 2), 2, 1, 2, 1, 1),
    (FlatModel(5, 3, 2), 3, 2, 3, 0, 1),
    (FlatModel(5, 3, 2), 4, 1, 2, 1, 0),
    (FlatModel(5, 3, 2), 4, 2, 8, 0, 0),
)


def _check_decompose(phi: SymbolChain, x: MultiVector, normal: SymbolChain) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        m = phi.model
        try:
            pot = serialize.chain_from_json(got["potential"], m)
            bx = serialize.multivector_from_json(got["class"]["X"], m)
            psi = serialize.chain_from_json(got["class"]["psi"], m)
        except (KeyError, ValueError) as exc:
            return f"malformed decomposition: {exc}"
        if differential_d(pot) + hkr(bx) + differential_d(psi) != phi:
            return "D(potential) + hkr(X) + D(psi) does not rebuild the input"
        if _mv_terms(got["class"]["X"]) != _mv_terms(serialize.multivector_to_json(x)):
            return "bivector part differs from the constructed one"
        if _chain_terms(got["class"]["psi"]) != _chain_terms(serialize.chain_to_json(normal)):
            return "normal part differs from the constructed one"
        return None
    return check


def _check_potential(phi: SymbolChain, exact: bool) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        if got.get("has_constraint_potential") is not exact:
            return f"has_constraint_potential should be {exact}"
        if not exact:
            return None if got.get("potential") is None else "potential given for a nontrivial class"
        try:
            pot = serialize.chain_from_json(got["potential"], phi.model)
        except (KeyError, ValueError) as exc:
            return f"malformed potential: {exc}"
        return None if differential_d(pot) == phi else "D(potential) differs from the input"
    return check


def _cocycle_solve(rng: random.Random) -> List[Command]:
    cmds = []
    for n, (m, K, c, n_obs, n_normal, n_biv) in enumerate(COCYCLES):
        psi = _observable_chain(rng, m, K, c, n_obs)
        normal = _normal_chain(rng, m, K, c, n_normal) if n_normal else SymbolChain.zero(m, 1)
        x = _observable_bivector(rng, m, c, n_biv) if n_biv else MultiVector.zero(m, 2)
        phi = differential_d(psi) + differential_d(normal) + hkr(x)
        name = f"cocycle{n}.json"
        files = {name: _dump(serialize.chain_to_json(phi))}
        base = ["--model", _model_arg(m), "--in", name]
        cmds.append(Command("decompose-cocycle", ["decompose-cocycle"] + base,
                            _check_decompose(phi, x, normal), files))
        exact = normal.is_zero() and x.is_zero()
        cmds.append(Command("find-potential", ["find-potential"] + base,
                            _check_potential(phi, exact)))
    return cmds


# ---------------------------------------------------------------------------
# star-equiv
# ---------------------------------------------------------------------------

STAR_MODEL = FlatModel(4, 3, 2)
EXP_MODEL = FlatModel(2, 2, 0)
SAMPLED_WINDOW_DEFECT = ("associativity is sampled only up to total degree max_order + 2, "
                         "too small once cochains have order >= 3")


def _check_star(associative: bool, constraint: bool) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        if got.get("associative") is not associative:
            return f"associative should be {associative}"
        if got.get("constraint") is not constraint:
            return f"constraint should be {constraint}"
        return None
    return check


def _check_equiv(diff: SymbolChain, plain: bool, constraint: bool) -> Check:
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        if got.get("order") != 1:
            return "order should be 1"
        if got.get("plain_equivalent") is not plain:
            return f"plain_equivalent should be {plain}"
        if got.get("constraint_equivalent") is not constraint:
            return f"constraint_equivalent should be {constraint}"
        if not plain:
            return None if got.get("S") is None else "S given for inequivalent stars"
        try:
            s = serialize.op_from_json(got["S"], diff.model)
        except (KeyError, ValueError) as exc:
            return f"malformed S: {exc}"
        return None if differential_d(s.symbol) == diff else "D(S) differs from C1 - C1'"
    return check


def _star_equiv(rng: random.Random) -> List[Command]:
    """Order-1 pairs with fixed words, so every seed costs the same: the
    seed picks the coefficients and which distribution letter plays
    which role (swapping them is a symmetry of the model)."""
    m = STAR_MODEL
    a, b = rng.sample(list(m.d_indices), 2)

    def const(q):
        return Poly.constant(m.n_total, q)

    def bivector(pairs):
        return MultiVector(m, 2, [(tuple(sorted(p)), const(_q(rng))) for p in pairs])

    def words(ws):
        return SymbolChain(m, 1, [((tuple(sorted(w)),), const(_q(rng))) for w in ws])

    cmds = []
    base = hkr(bivector([(a, 3), (a, b)]))
    shifts = (
        ("observable", differential_d(words([(b, 3)])), True, True),
        ("normal", differential_d(words([(a, 4), (b, 4)])), True, False),
        ("bivector", hkr(bivector([(b, 4)])), False, False),
    )
    for kind, shift, plain, constraint in shifts:
        shifted = base + shift
        name = f"pair_{kind}.json"
        pair = {"agree_to": 0, "star": _star_json([base]), "star_prime": _star_json([shifted])}
        cmds.append(Command("star-equiv", ["star-equiv", "--model", _model_arg(m), "--in", name],
                            _check_equiv(base - shifted, plain, constraint),
                            {name: _dump(pair)}))
        star_name = f"star_{kind}.json"
        cmds.append(Command("star-check", ["star-check", "--model", _model_arg(m), "--in", star_name],
                            _check_star(True, True), {star_name: _dump(_star_json([shifted]))}))

    # exp(P) with P = (1/2) B, B = d_i(x)d_j - d_j(x)d_i constant: C2 = B^2/8
    # is associative, any other multiple of B^2 is not
    e = EXP_MODEL
    i, j = rng.sample(list(e.dperp_indices), 2)
    bb = SymbolChain(e, 2, [(((i,), (j,)), Poly.constant(e.n_total, 1)),
                            (((j,), (i,)), Poly.constant(e.n_total, -1))])
    ij = tuple(sorted((i, j)))
    b2 = SymbolChain(e, 2, [(((i, i), (j, j)), Poly.constant(e.n_total, 1)),
                            ((ij, ij), Poly.constant(e.n_total, -2)),
                            (((j, j), (i, i)), Poly.constant(e.n_total, 1))])
    for scale, associative in ((Fraction(1, 8), True), (Fraction(1, 4), False)):
        name = f"exp_star_{scale.denominator}.json"
        star = _star_json([bb.scale(Fraction(1, 2)), b2.scale(scale)])
        cmds.append(Command("star-check", ["star-check", "--model", _model_arg(e), "--in", name],
                            _check_star(associative, True), {name: _dump(star)}))

    # known defect: C1 = D(d1 v d1 v d1), C2 = 0 on (1,1,0); the order-2
    # defect at (x1, x1, x1^4) is -216
    r = FlatModel(1, 1, 0)
    c1 = differential_d(SymbolChain.from_term(r, [(1, 1, 1)]))
    star = _star_json([c1, SymbolChain.zero(r, 2)])
    cmds.append(Command("star-check", ["star-check", "--model", _model_arg(r), "--in", "item3.json"],
                        _check_star(False, True), {"item3.json": _dump(star)},
                        known_defect=SAMPLED_WINDOW_DEFECT))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# cli-flows
# ---------------------------------------------------------------------------

CLI_MODELS = (FlatModel(3, 2, 1), FlatModel(4, 3, 2), FlatModel(4, 2, 1), FlatModel(5, 3, 2))


def _readme_commands() -> List[Command]:
    with open(README_CASES, encoding="utf-8") as fh:
        cases = json.load(fh)
    cmds = []
    for n, case in enumerate(cases["commands"]):
        files = cases["files"] if n == 0 else {}
        cmds.append(Command(case["argv"][0], list(case["argv"]),
                            _check_text(case["stdout"]), dict(files)))
    return cmds


def _random_poly(rng, m: FlatModel, exps: Sequence[tuple]) -> Poly:
    return Poly(m.n_total, {e: _q(rng) for e in exps})


def _function_case(rng, m: FlatModel, cls: str) -> Tuple[Poly, Optional[Poly]]:
    """A polynomial of the given class and, when observable, its image on
    the reduced model (restriction to C in the transverse variables)."""
    exps = [e for deg in (1, 2) for e in monomials_of_degree(m.n_total, deg)]
    normal = [e for e in exps if m.unit_counts(e)[2] >= 1]
    on_c_free = [e for e in exps if m.unit_counts(e)[0] == 0 and m.unit_counts(e)[2] == 0]
    on_c_dist = [e for e in exps if m.unit_counts(e)[0] >= 1 and m.unit_counts(e)[2] == 0]
    picked = _pick(rng, normal, 2)
    if cls in ("Wobs", "Total"):
        picked += _pick(rng, on_c_free, 2)
    if cls == "Total":
        picked += _pick(rng, on_c_dist, 1)
    f = _random_poly(rng, m, picked)
    if cls == "Total":
        return f, None
    n_red = max(m.n_reduced, 1)
    reduced = {}
    for e, q in f.terms.items():
        if m.unit_counts(e)[2] == 0:
            key = e[m.n_null:m.n_wobs] + (0,) * (n_red - m.n_reduced)
            reduced[key] = q
    return f, Poly(n_red, reduced)


def _field_case(rng, m: FlatModel, kind: str) -> Tuple[list, bool, bool]:
    """Vector field components and (wobs, null) by construction: null
    fields have their non-distribution components vanish on C; the
    observable non-null field adds a transverse component independent of
    the distribution variables; the plain field adds one that depends on
    them."""
    exps = [e for deg in (0, 1) for e in monomials_of_degree(m.n_total, deg)]
    vanishing = [e for e in exps if m.unit_counts(e)[2] >= 1]
    comps = []
    for i in range(1, m.n_total + 1):
        pool = exps if i <= m.n_null else vanishing
        comps.append(_random_poly(rng, m, _pick(rng, pool, 1)))
    p = m.n_null + 1  # first transverse index
    if kind == "wobs":
        free = [e for e in exps if m.unit_counts(e)[0] == 0 and m.unit_counts(e)[2] == 0]
        comps[p - 1] = comps[p - 1] + _random_poly(rng, m, _pick(rng, free, 1))
    elif kind == "total":
        dist = [e for e in exps if m.unit_counts(e)[0] >= 1 and m.unit_counts(e)[2] == 0]
        comps[p - 1] = comps[p - 1] + _random_poly(rng, m, _pick(rng, dist, 1))
    return comps, kind in ("null", "wobs"), kind == "null"


def _symbol_case(rng, m: FlatModel, kind: str) -> Tuple[SymbolChain, bool, bool]:
    """Arity-2 chain and (wobs, null) by construction: 'null' terms have a
    slot with a distribution letter and no normal letter, 'wobs' adds a
    term with transverse letters only and a distribution-free constant
    coefficient, 'none' adds a normal-class word (one normal letter, the
    rest distribution letters)."""
    letters = range(1, m.n_total + 1)
    d, p, u = m.n_null, m.n_null + 1, m.n_wobs + 1
    terms = []
    for _ in range(2):
        other = (rng.choice(letters),)
        slots = [(d,), other] if rng.random() < 0.5 else [other, (d,)]
        terms.append((tuple(slots), _random_poly(rng, m, [rng.choice(
            monomials_of_degree(m.n_total, rng.randint(0, 1)))])))
    if kind == "wobs":
        terms.append((((p,), (p,)), Poly.constant(m.n_total, _q(rng))))
    elif kind == "none":
        terms.append((((d, u), (p,)), Poly.constant(m.n_total, _q(rng))))
    return SymbolChain(m, 2, terms), kind in ("null", "wobs"), kind == "null"


def _check_hkr(x: MultiVector) -> Check:
    """hkr(q d_i^d_j) = q/2 (d_i(x)d_j - d_j(x)d_i), written out here
    rather than taken from the library under test."""
    want: Dict[tuple, Fraction] = {}
    for (i, j), coeff in x.terms.items():
        for exp, q in coeff.terms.items():
            want[(((i,), (j,)), exp)] = q / 2
            want[(((j,), (i,)), exp)] = -q / 2

    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        return None if _chain_terms(got) == want else "chain differs from the antisymmetrisation"
    return check


def _check_zero_chain(path: str) -> Check:
    def check(res: Result) -> Optional[str]:
        err = _expect_code(res)
        if err:
            return err
        return None if not json.loads(res.read(path))["terms"] else "D(D(phi)) is not zero"
    return check


def _check_delta(d_path: str) -> Check:
    """δ(Op φ) has the symbol D(φ) that bigd wrote to d_path."""
    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        other = json.loads(res.read(d_path))
        return None if _chain_terms(got["symbol"]) == _chain_terms(other) else f"differs from {d_path}"
    return check


def _check_reduce(reduced: Poly, n_red: int) -> Check:
    want = _poly_terms(serialize.poly_to_json(reduced))

    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        if got.get("kind") != "function" or got.get("reduced_model", {}).get("n_total") != n_red:
            return "wrong kind or reduced model"
        return None if _poly_terms(got["result"]) == want else "reduced function differs"
    return check


def _check_classify_star(x: MultiVector, normal: SymbolChain) -> Check:
    want_x = _mv_terms(serialize.multivector_to_json(x))
    want_psi = _chain_terms(serialize.chain_to_json(normal))

    def check(res: Result) -> Optional[str]:
        got, err = _json_or_error(res)
        if err:
            return err
        if _mv_terms(got["X"]) != want_x:
            return "bivector differs from the constructed one"
        return None if _chain_terms(got["psi"]) == want_psi else "normal part differs"
    return check


def _hh0_dim(m: FlatModel, tag: str, c: int) -> int:
    """Degree 0: the function class itself.  Null monomials carry a
    normal variable; observable ones carry one or no distribution
    variable at all."""
    n = 0
    for e in monomials_of_degree(m.n_total, c):
        d, _, t = m.unit_counts(e)
        n += t >= 1 or (tag == "wobs" and d == 0)
    return n


def _hh1_dim(m: FlatModel, tag: str, K: int, c: int) -> int:
    """Degree 1: the tagged vector fields at K = 1, nothing above (D is
    injective on words of symmetric degree >= 2)."""
    if K != 1:
        return 0
    n = 0
    for e in monomials_of_degree(m.n_total, c):
        for i in range(1, m.n_total + 1):
            n += _observable_word(m, e, (i,)) if tag == "wobs" else (
                m.unit_counts(e)[2] >= 1 or i <= m.n_null)
    return n


def _table_kv(pairs: Dict[str, object]) -> str:
    """The --format table rendering of a flat report."""
    return "".join(f"{k}: {('yes' if v else 'no') if isinstance(v, bool) else v}\n"
                   for k, v in sorted(pairs.items()))


def _check_hh_rows(m: FlatModel, tag: str, degree: int, kmax: int, cmax: int,
                   table: bool) -> Check:
    if degree == 0:
        dims = [_hh0_dim(m, tag, c) for c in range(cmax + 1)]
    else:
        dims = [_hh1_dim(m, tag, K, c) for K in range(1, kmax + 1) for c in range(cmax + 1)]

    def check(res: Result) -> Optional[str]:
        err = _expect_code(res)
        if err:
            return err
        if table:
            lines = res.stdout.splitlines()[2:]
            got = [int(line.split()[-1]) for line in lines]
        else:
            got = [r["hh_dim"] for r in res.json()["rows"]]
        return None if got == dims else f"dimensions {got}, expected {dims}"
    return check


def _cli_flows(rng: random.Random) -> List[Command]:
    cmds = _readme_commands()
    offset = rng.randrange(3)
    for n, m in enumerate(CLI_MODELS):
        model = ["--model", _model_arg(m)]
        fmt = ["--format", "table"] if n % 2 else []
        fmt_table = bool(fmt)
        pick = (offset + n) % 3  # which of three kinds this model gets

        for cls in ("Null", "Wobs", "Total")[pick:pick + 1]:
            f, reduced = _function_case(rng, m, cls)
            name = f"f{n}_{cls}.json"
            files = {name: _dump(serialize.poly_to_json(f))}
            check = (_check_text(_table_kv({"class": cls})) if fmt_table
                     else _check_json({"class": cls}))
            cmds.append(Command("classify-function",
                                ["classify-function"] + model + ["--in", name] + fmt,
                                check, files))
            if reduced is not None:
                cmds.append(Command("reduce", ["reduce"] + model + ["--in", name],
                                    _check_reduce(reduced, reduced.nvars)))

        for kind in ("null", "wobs", "total")[pick:pick + 1]:
            comps, wobs, null = _field_case(rng, m, kind)
            name = f"field{n}_{kind}.json"
            files = {name: _dump({"components": [serialize.poly_to_json(c) for c in comps]})}
            want = {"wobs": wobs, "null": null}
            check = _check_text(_table_kv(want)) if fmt_table else _check_json(want)
            cmds.append(Command("classify-field",
                                ["classify-field"] + model + ["--in", name] + fmt, check, files))

        for kind in ("null", "wobs", "none")[pick:pick + 1]:
            chain, wobs, null = _symbol_case(rng, m, kind)
            name, op_name = f"chain{n}_{kind}.json", f"op{n}_{kind}.json"
            files = {name: _dump(serialize.chain_to_json(chain)),
                     op_name: _dump({"symbol": serialize.chain_to_json(chain)})}
            want = {"wobs": wobs, "null": null}
            check = _check_text(_table_kv(want)) if fmt_table else _check_json(want)
            cmds.append(Command("classify-symbol",
                                ["classify-symbol"] + model + ["--in", name] + fmt, check, files))
            cmds.append(Command("classify-operator",
                                ["classify-operator"] + model + ["--in", op_name] + fmt, check))

        # D∘D = 0 and δ(Op φ) = Op(Dφ) on an arity-1 chain of mixed words
        phi = _observable_chain(rng, m, 3, 1, 2) + _normal_chain(rng, m, 2, 0, 1)
        phi_name, d_name, dd_name = f"phi{n}.json", f"dphi{n}.json", f"ddphi{n}.json"
        files = {phi_name: _dump(serialize.chain_to_json(phi)),
                 f"opphi{n}.json": _dump({"symbol": serialize.chain_to_json(phi)})}
        cmds.append(Command("bigd", ["bigd"] + model + ["--in", phi_name, "--out", d_name],
                            _expect_code, files))
        cmds.append(Command("bigd", ["bigd"] + model + ["--in", d_name, "--out", dd_name],
                            _check_zero_chain(dd_name)))
        cmds.append(Command("delta", ["delta"] + model + ["--in", f"opphi{n}.json"],
                            _check_delta(d_name)))

        x = _observable_bivector(rng, m, 1, 2)
        x_name = f"biv{n}.json"
        cmds.append(Command("hkr", ["hkr"] + model + ["--in", x_name], _check_hkr(x),
                            {x_name: _dump(serialize.multivector_to_json(x))}))

        normal = _normal_chain(rng, m, 2, 1, 1)
        c1 = hkr(x) + differential_d(normal) + differential_d(_observable_chain(rng, m, 2, 0, 1))
        star_name = f"istar{n}.json"
        cmds.append(Command("classify-star", ["classify-star"] + model + ["--in", star_name],
                            _check_classify_star(x, normal), {star_name: _dump(_star_json([c1]))}))

        tag = rng.choice(("wobs", "null"))
        for degree, kmax, cmax in ((0, 1, 3), (1, 2, 1)):
            argv = ["hh-dim"] + model + ["--tag", tag, "--degree", str(degree),
                                         "--kmax", str(kmax), "--cmax", str(cmax)] + fmt
            cmds.append(Command("hh-dim", argv,
                                _check_hh_rows(m, tag, degree, kmax, cmax, fmt_table)))
    return cmds


# ---------------------------------------------------------------------------


_GENERATORS = {"hh-grid": _hh_grid, "cocycle-solve": _cocycle_solve,
               "star-equiv": _star_equiv, "cli-flows": _cli_flows}


def generate(workload: str, seed: int) -> List[Command]:
    """Commands of one pass of the workload, built from the seed alone."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(cmds: Sequence[Command]) -> bytes:
    """Every byte the program sees: arguments and input files."""
    return _dump([[c.argv, sorted(c.files.items())] for c in cmds]).encode()
