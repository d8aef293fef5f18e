"""The one printer: the human text of encoded values and reports.

:func:`to_text` gives the text of an encoded polynomial, operator,
chain, multivector or vector field, and :func:`table_text` the
``--format table`` form of a report; :func:`poly_text` prints the terms
of a polynomial in canonical order.  Only ``--format table`` (through
``cli.emit_report``), ``Poly.__str__`` and the reprs of the symbol
classes load this module, so a command that reports JSON never
compiles it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple


def poly_text(terms: Iterable[Tuple[Sequence[int], Fraction]]) -> str:
    """Text of a polynomial from its (exponent, coefficient) pairs in
    canonical order, e.g. ``x1^2*x3 - 1/2``; ``0`` when there are none."""
    parts = []
    for exp, coeff in terms:
        body = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exp, 1) if e > 0)
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{coeff}*{body}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def to_text(data) -> Optional[str]:
    """Text of an encoded polynomial, operator, chain, multivector or
    vector field: the terms as ``(coefficient) word`` joined by ``+``,
    with chain words as ``d1vd2(x)d3`` and multivector words as
    ``d1^d2``.  None for any other value."""
    if not isinstance(data, dict):
        return None
    keys = set(data)
    if keys == {"symbol"}:
        return to_text(data["symbol"])
    if keys == {"terms"}:
        return poly_text((t["exp"], Fraction(*t["coeff"])) for t in data["terms"])
    if keys == {"arity", "terms"}:
        terms = [(t["coeff_poly"], "(x)".join("v".join(f"d{i}" for i in w) for w in t["slots"]))
                 for t in data["terms"]]
    elif keys == {"degree", "terms"}:
        terms = [(t["coeff_poly"], "^".join(f"d{i}" for i in t["indices"]))
                 for t in data["terms"]]
    elif keys == {"components"}:
        terms = [(c, f"d{i}") for i, c in enumerate(data["components"], 1) if c["terms"]]
    else:
        return None
    return "  +  ".join(f"({to_text(c)}) {w}" for c, w in terms) or "0"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)):
        text = to_text(value)
        return json.dumps(value, sort_keys=True) if text is None else text
    return str(value)


def table_text(result: dict) -> str:
    """The ``--format table`` form of a report: the text of an encoded
    value, an aligned table of its rows, or one ``key: value`` line per
    field."""
    text = to_text(result)
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
