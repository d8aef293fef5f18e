"""Batch front door: parse objects, dispatch computations, emit reports.

Every command reads JSON objects (formats in serialize.py), writes a
deterministic JSON report (or an aligned table with --format table) and
exits 0 on success, 1 on input errors and 2 when a verification command
found a mismatch.  Slice jobs of verify-theorem and hh-dim can fan out
over a worker pool (--jobs, default from CONHOCH_JOBS); results are
merged in slice-key order, so output is identical for every pool width.

Each command imports only the modules it runs.  Importing this module
compiles only errors, model and poly (the --tag choices come from
model.SubspaceTag); the handlers and the table printer import serialize,
symbols, decompose, diffops, cohomology and starprod when called, slice
rows encode their model without serialize, and the pool is imported
only when more than one worker is used.  A write to an unwritable --out
path, an input nested too deeply for the JSON reader, a negative --kmax
or --cmax and a slice --tag other than wobs/null are input errors too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .errors import ConhochError
from .model import FlatModel, SubspaceTag


def _parse_model(text: str) -> FlatModel:
    try:
        n_total, n_wobs, n_null = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--model expects nT,nW,n0 (got {text!r})") from exc
    return FlatModel(n_total, n_wobs, n_null)


def _load(path: Optional[str]) -> dict:
    if path is None:
        raise ValueError("this command needs --in FILE")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return data


def _resolve_jobs(flag: Optional[int]) -> int:
    """Worker count from --jobs, else from CONHOCH_JOBS, else 1.  Read
    when a command runs, so a bad value is an input error like any
    other."""
    if flag is not None:
        if flag < 1:
            raise ValueError(f"--jobs must be at least 1 (got {flag})")
        return flag
    env = os.environ.get("CONHOCH_JOBS", "1")
    try:
        jobs = int(env)
    except ValueError:
        jobs = None
    if jobs is None or jobs < 1:
        raise ValueError(f"CONHOCH_JOBS must be a positive integer (got {env!r})")
    return jobs


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def emit_report(result: dict, fmt: str = "json") -> str:
    """Render a report as machine JSON or an aligned human table; symbols
    appear in the canonical term order either way."""
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    from . import serialize
    text = serialize.to_text(result)
    if text is not None:
        return text + "\n"
    rows = result.get("rows")
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        keys = [k for k in rows[0] if k != "representatives"]
        widths = {k: max(len(k), *(len(_cell(r.get(k))) for r in rows)) for k in keys}
        lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
        lines.append("  ".join("-" * widths[k] for k in keys))
        for r in rows:
            lines.append("  ".join(_cell(r.get(k)).ljust(widths[k]) for k in keys))
        extras = {k: v for k, v in result.items() if k != "rows"}
        if extras:
            lines.append("")
            lines.extend(f"{k}: {_cell(v)}" for k, v in sorted(extras.items()))
        return "\n".join(lines) + "\n"
    return "\n".join(f"{k}: {_cell(v)}" for k, v in sorted(result.items())) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)):
        from . import serialize
        text = serialize.to_text(value)
        return json.dumps(value, sort_keys=True) if text is None else text
    return str(value)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# slice jobs (top level so worker processes can import them)
# ---------------------------------------------------------------------------


def _hh2_job(args) -> dict:
    from . import cohomology
    dims, tag_value, sym_degree, coeff_degree, with_reps = args
    model = FlatModel(*dims)
    report = cohomology.hh2_slice_report(model, SubspaceTag(tag_value),
                                         sym_degree, coeff_degree,
                                         with_representatives=with_reps)
    row = {
        "model": model._asdict(),
        "tag": report["tag"],
        "degree": 2,
        "K": report["K"],
        "c": report["c"],
        "hh_dim": report["hh_dim"],
        "rhs_dim": report["rhs_dim"],
        "match": report["match"],
    }
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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_classify_function(model, args) -> dict:
    from . import serialize
    f = serialize.poly_from_json(_load(args.infile), model.n_total)
    return {"class": model.classify_function(f).value}


def _cmd_classify_field(model, args) -> dict:
    from . import serialize, symbols
    x = serialize.field_from_json(_load(args.infile), model)
    return {"wobs": symbols.vf_membership(x, SubspaceTag.WOBS),
            "null": symbols.vf_membership(x, SubspaceTag.NULL)}


def _cmd_classify_symbol(model, args) -> dict:
    from . import serialize, symbols
    chain = serialize.chain_from_json(_load(args.infile), model)
    if args.tag is not None:
        tag = SubspaceTag(args.tag)
        return {"tag": tag.value, "member": symbols.chain_membership(chain, tag)}
    return {"wobs": symbols.chain_membership(chain, SubspaceTag.WOBS),
            "null": symbols.chain_membership(chain, SubspaceTag.NULL)}


def _cmd_classify_operator(model, args) -> dict:
    from . import diffops, serialize
    op = serialize.op_from_json(_load(args.infile), model)
    return {"wobs": diffops.op_membership(op, SubspaceTag.WOBS),
            "null": diffops.op_membership(op, SubspaceTag.NULL)}


def _cmd_delta(model, args) -> dict:
    from . import diffops, serialize
    op = serialize.op_from_json(_load(args.infile), model)
    return serialize.op_to_json(diffops.hochschild_delta(op))


def _cmd_bigd(model, args) -> dict:
    from . import serialize, symbols
    chain = serialize.chain_from_json(_load(args.infile), model)
    return serialize.chain_to_json(symbols.differential_d(chain))


def _cmd_hkr(model, args) -> dict:
    from . import serialize, symbols
    x = serialize.multivector_from_json(_load(args.infile), model)
    return serialize.chain_to_json(symbols.hkr(x))


def _hh_rows(model, tags: List[str], kmax: int, cmax: int, workers: int,
             with_reps: bool) -> List[dict]:
    jobs = [(
        (model.n_total, model.n_wobs, model.n_null), tag, K, c, with_reps)
        for tag in tags
        for K in range(2, kmax + 1)
        for c in range(0, cmax + 1)]
    return _run_slice_jobs(jobs, workers)


def _cmd_hh_dim(model, args) -> dict:
    from . import cohomology
    tag = SubspaceTag(args.tag or "wobs")
    if args.degree == 2:
        return {"rows": _hh_rows(model, [tag.value], args.kmax, args.cmax,
                                 args.jobs, with_reps=False)}
    head = {"model": model._asdict(), "tag": tag.value, "degree": args.degree}
    if args.degree == 0:
        rows = [dict(head, c=c, hh_dim=cohomology.hh0_dimension(model, tag, c))
                for c in range(args.cmax + 1)]
    else:
        rows = [dict(head, K=K, c=c, hh_dim=cohomology.hh_dimension(model, tag, 1, K, c))
                for K in range(1, args.kmax + 1) for c in range(args.cmax + 1)]
    return {"rows": rows}


def _cmd_verify_theorem(model, args) -> dict:
    tags = [args.tag] if args.tag else ["wobs", "null"]
    rows = _hh_rows(model, tags, args.kmax, args.cmax, args.jobs,
                    with_reps=args.reps)
    return {"rows": rows, "all_match": all(r["match"] for r in rows)}


def _cmd_decompose_cocycle(model, args) -> dict:
    from . import decompose, serialize
    chain = serialize.chain_from_json(_load(args.infile), model)
    dec = decompose.decompose_2cocycle(chain)
    ambient, reduced = decompose.class_maps(dec.cocycle_class)
    return {
        "class": {"X": serialize.multivector_to_json(dec.cocycle_class.bivector),
                  "psi": serialize.chain_to_json(dec.cocycle_class.normal_part)},
        "potential": serialize.chain_to_json(dec.potential),
        "ambient_bivector": serialize.multivector_to_json(ambient),
        "reduced_bivector": serialize.multivector_to_json(reduced),
    }


def _cmd_find_potential(model, args) -> dict:
    from . import cohomology, serialize
    chain = serialize.chain_from_json(_load(args.infile), model)
    psi = cohomology.find_constraint_potential(chain)
    return {"has_constraint_potential": psi is not None,
            "potential": None if psi is None else serialize.chain_to_json(psi)}


def _cmd_star_check(model, args) -> dict:
    from . import serialize, starprod
    star = serialize.star_from_json(_load(args.infile), model)
    violation = starprod.check_associativity(star)
    result = {"constraint": starprod.is_constraint_star(star),
              "associative": violation is None}
    if violation is not None:
        result["violation"] = {
            "order": violation.order,
            "arguments": [serialize.poly_to_json(p) for p in violation.arguments],
            "defect": serialize.poly_to_json(violation.defect),
        }
    return result


def _cmd_star_equiv(model, args) -> dict:
    from . import serialize, starprod
    data = _load(args.infile)
    try:
        a = serialize.star_from_json(data["star"], model)
        b = serialize.star_from_json(data["star_prime"], model)
        agree_to = serialize.json_integer(data.get("agree_to", 0), "'agree_to'")
    except KeyError as exc:
        raise ValueError(f"star-equiv input needs 'star' and 'star_prime': {exc}") from exc
    report = starprod.equivalence_report(a, b, agree_to)
    s = report["S"]
    return {"order": report["order"],
            "plain_equivalent": report["plain_equivalent"],
            "constraint_equivalent": report["constraint_equivalent"],
            "S": None if s is None else serialize.op_to_json(s)}


def _cmd_classify_star(model, args) -> dict:
    from . import serialize, starprod
    star = serialize.star_from_json(_load(args.infile), model)
    if star.order < 1:
        raise ValueError("classification needs a first-order cochain")
    cls = starprod.classify_infinitesimal(star.cochain(1))
    return {"X": serialize.multivector_to_json(cls.bivector),
            "psi": serialize.chain_to_json(cls.normal_part)}


def _cmd_reduce(model, args) -> dict:
    from . import serialize
    data = _load(args.infile)
    reduced_model = model.reduced_model()
    if "components" in data:
        raise ValueError("reduction of plain vector fields is not provided; "
                         "pass a function or a multivector")
    if "degree" in data:
        from .decompose import reduce_multivector
        x = serialize.multivector_from_json(data, model)
        return {"kind": "multivector",
                "reduced_model": reduced_model._asdict(),
                "result": serialize.multivector_to_json(reduce_multivector(x))}
    f = serialize.poly_from_json(data, model.n_total)
    return {"kind": "function",
            "reduced_model": reduced_model._asdict(),
            "result": serialize.poly_to_json(model.reduce_function(f))}


_HANDLERS = {
    "classify-function": _cmd_classify_function,
    "classify-field": _cmd_classify_field,
    "classify-symbol": _cmd_classify_symbol,
    "classify-operator": _cmd_classify_operator,
    "delta": _cmd_delta,
    "bigd": _cmd_bigd,
    "hkr": _cmd_hkr,
    "hh-dim": _cmd_hh_dim,
    "verify-theorem": _cmd_verify_theorem,
    "decompose-cocycle": _cmd_decompose_cocycle,
    "find-potential": _cmd_find_potential,
    "star-check": _cmd_star_check,
    "star-equiv": _cmd_star_equiv,
    "classify-star": _cmd_classify_star,
    "reduce": _cmd_reduce,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conhoch",
        description="Exact constraint Hochschild cohomology on flat models")
    parser.add_argument("command", choices=tuple(_HANDLERS))
    parser.add_argument("--model", required=True, metavar="nT,nW,n0")
    parser.add_argument("--in", dest="infile", default=None, metavar="FILE")
    parser.add_argument("--out", dest="outfile", default=None, metavar="FILE")
    parser.add_argument("--tag", choices=[t.value for t in SubspaceTag], default=None)
    parser.add_argument("--kmax", type=int, default=3)
    parser.add_argument("--cmax", type=int, default=2)
    parser.add_argument("--degree", type=int, choices=(0, 1, 2), default=2)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--reps", action="store_true",
                        help="include class representatives in slice rows")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.jobs = _resolve_jobs(args.jobs)
        for flag, value in (("--kmax", args.kmax), ("--cmax", args.cmax)):
            if value < 0:
                raise ValueError(f"{flag} must be at least 0 (got {value})")
        if (args.command in ("hh-dim", "verify-theorem")
                and args.tag not in (None, "wobs", "null")):
            raise ValueError("cohomology slices carry wobs/null tags")
        model = _parse_model(args.model)
        result = _HANDLERS[args.command](model, args)
        _write(emit_report(result, args.format), args.outfile)
    except (ConhochError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.command == "verify-theorem" and not result["all_match"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
