"""Run one CLI command with per-layer spans and counters.

Usage: python bench/tracer.py SPANS_FILE -- <conhoch arguments>

The launcher imports the package, wraps module attributes at the layer
boundaries (each name is replaced everywhere it is looked up, since
modules import functions by name), runs ``conhoch.cli.main`` and writes
the spans and counters to SPANS_FILE as JSON when the command ends.
Nothing in the package itself changes.

A span is [name, start, end, parent index]; times are perf_counter
seconds of this process.  Poly is wrapped with counters only: one
star-equiv command constructs about half a million polynomials.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import conhoch
import conhoch.cli as cli
from conhoch import cohomology, diffops, linalg, poly, serialize, starprod, symbols

_MODULES = (conhoch, cli, cohomology, diffops, linalg, poly, serialize, starprod, symbols)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) and after(result) update
        counters outside the timed interval."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(result)
            return result
        return wrapper

    def counter(self, name, fn, kept=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if kept is not None and result:
                counts[kept] += 1
            return result
        return wrapper


def _rebind(orig, replacement) -> None:
    """Point every module-level name bound to orig at replacement."""
    for mod in _MODULES:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, replacement)


def _matrix_stats(rec: Recorder, prefix: str):
    def before(args):
        m = args[0]
        cells = m.rows * m.cols
        rec.counts[prefix + ".count"] += 1
        rec.counts[prefix + ".cells"] += cells
        rec.counts[prefix + ".nnz"] += sum(1 for row in m.entries for x in row if x)
        if cells > rec.counts[prefix + ".max_cells"]:
            rec.counts[prefix + ".max_cells"] = cells
    return before


def install(rec: Recorder) -> dict:
    """Wrap the layer boundaries; returns the lru caches to read at exit."""
    M = linalg.RationalMatrix
    M.__init__ = rec.span("linalg.matrix_build", M.__init__)
    M.rank = rec.span("linalg.rank", M.rank, before=_matrix_stats(rec, "linalg.rank"))

    def solved(result):
        if result is None:
            rec.counts["linalg.solve.inconsistent"] += 1
    M.solve = rec.span("linalg.solve", M.solve, before=_matrix_stats(rec, "linalg.solve"),
                       after=solved)

    caches = {}
    for name in ("_tagged_slots_for_units", "_all_slot_tuples"):
        orig = getattr(cohomology, name)
        caches[name] = orig
        _rebind(orig, rec.span("cohomology.enumerate", orig))

    def columns(args):
        rec.counts["cohomology.blocks.count"] += 1
        rec.counts["cohomology.image_columns.columns"] += len(args[1])
    _rebind(cohomology._image_columns,
            rec.span("cohomology.image_columns", cohomology._image_columns, before=columns))
    _rebind(cohomology._solve_d, rec.span("cohomology.solve_d", cohomology._solve_d))

    def d_count(args):
        rec.counts["symbols.differential_d.count"] += 1
    _rebind(symbols.differential_d,
            rec.span("symbols.differential_d", symbols.differential_d, before=d_count))
    _rebind(symbols.chain_membership,
            rec.span("symbols.chain_membership", symbols.chain_membership))
    _rebind(symbols.monomial_member,
            rec.counter("symbols.monomial_member.count", symbols.monomial_member,
                        kept="symbols.monomial_member.kept"))

    P = poly.Poly
    P.__init__ = rec.counter("poly.construct.count", P.__init__)
    P.__mul__ = P.__rmul__ = rec.counter("poly.mul.count", P.__mul__)

    def apply_count(args):
        rec.counts["diffops.apply.count"] += 1
    diffops.MultiDiffOp.apply = rec.span("diffops.apply", diffops.MultiDiffOp.apply,
                                         before=apply_count)

    def assoc_count(args):
        rec.counts["starprod.check_associativity.count"] += 1
    _rebind(starprod.check_associativity,
            rec.span("starprod.check_associativity", starprod.check_associativity,
                     before=assoc_count))
    _rebind(starprod._associativity_defect,
            rec.counter("starprod.triples", starprod._associativity_defect))

    for name, fn in list(vars(serialize).items()):
        if callable(fn) and getattr(fn, "__module__", None) == serialize.__name__:
            if name.endswith("_from_json"):
                _rebind(fn, rec.span("serialize.decode", fn))
            elif name.endswith("_to_json"):
                _rebind(fn, rec.span("serialize.encode", fn))
    _rebind(cli.emit_report, rec.span("cli.emit", cli.emit_report))
    return caches


def main(argv) -> int:
    spans_path, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- <conhoch arguments>")
    rec = Recorder()
    caches = install(rec)
    code = 1
    try:
        code = rec.span("cli.main", cli.main)(args)
    finally:
        for fn in caches.values():
            info = fn.cache_info()
            rec.counts["cohomology.enumerate.hits"] += info.hits
            rec.counts["cohomology.enumerate.misses"] += info.misses
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": dict(rec.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
