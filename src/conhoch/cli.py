"""Batch front door: parse the command line, dispatch, emit the report.

Every command reads JSON objects (formats in serialize.py), writes a
deterministic JSON report (or an aligned table with --format table) and
exits 0 on success, 1 on input errors and 2 when a verification command
found a mismatch.  verify-theorem and hh-dim compute their slices one
after another in this process; --jobs N is accepted and checked (N must
be at least 1) but changes nothing, so output is the same for every N.

This module holds only the parser, :func:`main`, the dispatch table and
report emission, and importing it compiles only errors and model (the
--tag choices come from model.SubspaceTag).  One table of options
(:data:`_OPTIONS`) feeds both readers of the command line.  A plain
line (the command, then spelled-out ``--flag VALUE`` pairs and
``--reps``, with --model given) is read by :func:`_plain_args` into the
namespace argparse would build; any other line (help, usage errors,
abbreviations, ``--flag=value``, negative numbers) goes to the parser
of :func:`build_parser`, which alone imports argparse and prints the
usage.  Each command's handler
lives with the code it runs (:data:`_HANDLERS` names the module) and is
imported when the command runs; a handler that reads --in FILE imports
serialize then, and only --format table loads the printer.  Handlers
return the package's values, which :func:`emit_report` encodes.  A
write to an unwritable --out path or a failed write to stdout (a full
disk, a closed pipe), an input nested too deeply for the JSON reader, a
negative --kmax or --cmax and a slice --tag other than wobs/null are
input errors too.

:func:`run` is the one entry point of ``python -m conhoch``, ``python -m
conhoch.cli`` and the installed ``conhoch`` script.  It calls
:func:`main`, then freezes the heap (``gc.freeze``) before it exits, so
the full collections the interpreter runs at shutdown find nothing to
scan.  Shutdown otherwise runs as usual: atexit handlers, the stream
flushes and module teardown.  :func:`main` never freezes, so a caller
that runs it in-process keeps normal collection.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConhochError
from .model import FlatModel, SubspaceTag, _check_int

if TYPE_CHECKING:  # build_parser imports it on use
    import argparse


def _parse_model(text: str) -> FlatModel:
    try:
        n_total, n_wobs, n_null = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--model expects nT,nW,n0 (got {text!r})") from exc
    return FlatModel(n_total, n_wobs, n_null)


def _encode(value):
    """The JSON form of a value by the serialize encoder its class names in
    ``_encoder``, looked up when called; TypeError if it names none."""
    encoder = getattr(type(value), "_encoder", "")
    if not encoder:
        raise TypeError(f"no JSON encoder for {value!r}")
    from . import serialize
    return getattr(serialize, encoder)(value)


def emit_report(result, fmt: str = "json") -> str:
    """Render a report - a package value, or dicts and lists holding some -
    as machine JSON or an aligned human table, each value encoded once by
    :func:`_encode`; symbols appear in the canonical term order either way."""
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True, default=_encode) + "\n"
    from . import printer
    return printer.table_text(json.loads(json.dumps(result, default=_encode)))


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        try:
            raw = getattr(sys.stdout, "buffer", None)
            if isinstance(raw, io.FileIO):
                # unbuffered (python -u): TextIOWrapper drops what a short
                # write leaves over, so write until the OS takes every byte
                data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[os.write(raw.fileno(), data):]
            else:
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError:
            # the flush at exit would retry the same bytes and exit 120;
            # send them to the null device, as the signal docs do for SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


#: command -> (module, handler); a handler takes (model, args) and returns
#: the report, and its module is imported only when the command runs
_HANDLERS = {
    "classify-function": ("serialize", "cmd_classify_function"),
    "classify-field": ("fields", "cmd_classify_field"),
    "classify-symbol": ("symbols", "cmd_classify_symbol"),
    "classify-operator": ("hochschild", "cmd_classify_operator"),
    "delta": ("hochschild", "cmd_delta"),
    "bigd": ("symbols", "cmd_bigd"),
    "hkr": ("multivector", "cmd_hkr"),
    "hh-dim": ("slicecount", "cmd_hh_dim"),
    "verify-theorem": ("slicecount", "cmd_verify_theorem"),
    "decompose-cocycle": ("decompose", "cmd_decompose_cocycle"),
    "find-potential": ("cohomology", "cmd_find_potential"),
    "star-check": ("starprod", "cmd_star_check"),
    "star-equiv": ("starprod", "cmd_star_equiv"),
    "classify-star": ("starprod", "cmd_classify_star"),
    "reduce": ("serialize", "cmd_reduce"),
}


#: every option after the command: flag -> (dest, type, choices, default,
#: metavar); type None marks the --reps switch.  The parser and the plain
#: command-line reader both read this table
_OPTIONS = {
    "--model": ("model", str, None, None, "nT,nW,n0"),
    "--in": ("infile", str, None, None, "FILE"),
    "--out": ("outfile", str, None, None, "FILE"),
    "--tag": ("tag", str, tuple(t.value for t in SubspaceTag), None, None),
    "--kmax": ("kmax", int, None, 3, None),
    "--cmax": ("cmax", int, None, 2, None),
    "--degree": ("degree", int, (0, 1, 2), 2, None),
    "--jobs": ("jobs", int, None, 1, None),
    "--reps": ("reps", None, None, False, None),
    "--format": ("format", str, ("json", "table"), "json", None),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="conhoch",
        description="Exact constraint Hochschild cohomology on flat models")
    parser.add_argument("command", choices=tuple(_HANDLERS))
    for flag, (dest, kind, choices, default, metavar) in _OPTIONS.items():
        if kind is None:
            parser.add_argument(flag, action="store_true",
                                help="include class representatives in slice rows")
        else:
            parser.add_argument(flag, dest=dest, type=kind, choices=choices,
                                default=default, metavar=metavar,
                                required=flag == "--model")
    return parser


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse builds from a plain command line - COMMAND,
    then spelled-out ``--flag VALUE`` pairs and ``--reps``, with --model
    given and no VALUE starting with ``-`` - or None for any other line,
    which argparse then parses (help, usage errors, abbreviations,
    ``--flag=value``, negative numbers, options before the command)."""
    if not argv or argv[0] not in _HANDLERS:
        return None
    values = {dest: default for dest, _, _, default, _ in _OPTIONS.values()}
    values["command"] = argv[0]
    i = 1
    while i < len(argv):
        spec = _OPTIONS.get(argv[i])
        if spec is None:
            return None
        dest, kind, choices, _, _ = spec
        if kind is None:
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            value = kind(argv[i + 1])
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    return None if values["model"] is None else SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        for flag, value, least in (("--jobs", args.jobs, 1), ("--kmax", args.kmax, 0),
                                   ("--cmax", args.cmax, 0)):
            _check_int(value, flag, least)
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


def run() -> None:
    """Run :func:`main` on the command line and exit with its status,
    freezing the heap first: the interpreter's final collections then
    skip every object the command left behind.  A usage error or --help
    (argparse's SystemExit) exits through the freeze too."""
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
