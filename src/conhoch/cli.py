"""Batch front door: parse the command line, dispatch, emit the report.

Every command reads JSON objects (formats in serialize.py), writes a
deterministic JSON report (or an aligned table with --format table) and
exits 0 on success, 1 on input errors and 2 when a verification command
found a mismatch.  Slice jobs of verify-theorem and hh-dim can fan out
over a worker pool (--jobs, default from CONHOCH_JOBS); results are
merged in slice-key order, so output is identical for every pool width.

This module holds only the parser, :func:`main`, the dispatch table and
JSON emission, and importing it compiles only errors and model (the
--tag choices come from model.SubspaceTag).  Each command's handler
lives with the code it runs (:data:`_HANDLERS` names the module) and is
imported when the command runs; a handler that reads --in FILE imports
serialize then, and only --format table loads the printer.  A
write to an unwritable --out path, an input nested too deeply for the
JSON reader, a negative --kmax or --cmax and a slice --tag other than
wobs/null are input errors too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import Optional, Sequence

from .errors import ConhochError
from .model import FlatModel, SubspaceTag


def _parse_model(text: str) -> FlatModel:
    try:
        n_total, n_wobs, n_null = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--model expects nT,nW,n0 (got {text!r})") from exc
    return FlatModel(n_total, n_wobs, n_null)


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


def emit_report(result: dict, fmt: str = "json") -> str:
    """Render a report as machine JSON or an aligned human table; symbols
    appear in the canonical term order either way."""
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    from . import printer
    return printer.table_text(result)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


#: command -> (module, handler); a handler takes (model, args) and returns
#: the report, and its module is imported only when the command runs
_HANDLERS = {
    "classify-function": ("serialize", "cmd_classify_function"),
    "classify-field": ("fields", "cmd_classify_field"),
    "classify-symbol": ("symbols", "cmd_classify_symbol"),
    "classify-operator": ("diffops", "cmd_classify_operator"),
    "delta": ("diffops", "cmd_delta"),
    "bigd": ("symbols", "cmd_bigd"),
    "hkr": ("symbols", "cmd_hkr"),
    "hh-dim": ("slicecount", "cmd_hh_dim"),
    "verify-theorem": ("slicecount", "cmd_verify_theorem"),
    "decompose-cocycle": ("decompose", "cmd_decompose_cocycle"),
    "find-potential": ("cohomology", "cmd_find_potential"),
    "star-check": ("starprod", "cmd_star_check"),
    "star-equiv": ("starprod", "cmd_star_equiv"),
    "classify-star": ("starprod", "cmd_classify_star"),
    "reduce": ("serialize", "cmd_reduce"),
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
        module, handler = _HANDLERS[args.command]
        result = getattr(import_module(f".{module}", __package__), handler)(model, args)
        _write(emit_report(result, args.format), args.outfile)
    except (ConhochError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.command == "verify-theorem" and not result["all_match"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
