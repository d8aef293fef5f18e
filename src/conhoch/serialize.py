"""JSON encodings for every object crossing the tool boundary.

All rationals travel as exact [numerator, denominator] pairs; no
floating point appears in any interface.  Encoders emit terms in the
canonical order so output is byte-deterministic; decoders validate and
raise ValueError on malformed input (the CLI maps that to exit code 1).
:func:`to_text` gives the one human text form of an encoded value, used
by :func:`table_text` (``--format table``) and by the reprs of the
symbol classes.

The handlers of the commands that read ``--in FILE`` live here too,
one ``cmd_*`` function per command: every one of them decodes its
input with this module.  Each decoder and handler imports the modules
it computes with on first use, so a command that reads only models and
polynomials never loads ``symbols``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .model import FlatModel, SubspaceTag
from .poly import Poly, poly_text

if TYPE_CHECKING:  # the decoders import these on first use
    from .diffops import MultiDiffOp
    from .starprod import TruncatedStar
    from .symbols import MultiVector, SymbolChain, VectorField


def json_integer(value, what: str) -> int:
    """An integer field of a JSON document: a JSON integer, or a number
    with an integral value such as 2.0.  Booleans, strings, fractional
    numbers and infinities are malformed input."""
    if type(value) is int:  # not bool, a subclass of int
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def model_to_json(model: FlatModel) -> dict:
    return model._asdict()


def model_from_json(data: dict) -> FlatModel:
    try:
        return FlatModel(*(json_integer(data[key], key)
                           for key in ("n_total", "n_wobs", "n_null")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model: {exc}") from exc


def poly_to_json(p: Poly) -> dict:
    return {"terms": [{"coeff": [c.numerator, c.denominator], "exp": list(e)}
                      for e, c in p.sorted_terms()]}


def _items(data: dict, key: str, what: str) -> list:
    """The JSON array data[key]; anything else is malformed input."""
    items = data[key]
    if not isinstance(items, list):
        raise ValueError(f"{what} JSON needs {key!r} to be an array")
    return items


def poly_from_json(data: dict, nvars: int) -> Poly:
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("polynomial JSON needs a 'terms' array")
    terms = {}
    for item in _items(data, "terms", "polynomial"):
        try:
            num, den = item["coeff"]
            coeff = Fraction(json_integer(num, "a coefficient"),
                             json_integer(den, "a coefficient"))
            exp = tuple(json_integer(e, "an exponent") for e in item["exp"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial term {item}: {exc}") from exc
        if len(exp) != nvars:
            raise ValueError(f"exponent {exp} does not match {nvars} variables")
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return Poly(nvars, terms)


def chain_to_json(chain: SymbolChain) -> dict:
    return {"arity": chain.arity,
            "terms": [{"coeff_poly": poly_to_json(coeff), "slots": [list(w) for w in slots]}
                      for slots, coeff in chain.sorted_terms()]}


def chain_from_json(data: dict, model: FlatModel) -> SymbolChain:
    from .symbols import SymbolChain
    if not isinstance(data, dict) or "arity" not in data or "terms" not in data:
        raise ValueError("symbol chain JSON needs 'arity' and 'terms'")
    arity = json_integer(data["arity"], "'arity'")
    terms = []
    for item in _items(data, "terms", "symbol chain"):
        try:
            coeff = poly_from_json(item["coeff_poly"], model.n_total)
            slots = tuple(tuple(sorted(json_integer(i, "a slot letter") for i in w))
                          for w in item["slots"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed chain term {item}: {exc}") from exc
        terms.append((slots, coeff))
    try:
        return SymbolChain(model, arity, terms)
    except IndexError as exc:
        raise ValueError(f"symbol chain does not fit model {model}: {exc}") from exc


def op_to_json(op: MultiDiffOp) -> dict:
    return {"symbol": chain_to_json(op.symbol)}


def op_from_json(data: dict, model: FlatModel) -> MultiDiffOp:
    from .diffops import MultiDiffOp
    if not isinstance(data, dict) or "symbol" not in data:
        raise ValueError("operator JSON needs a 'symbol'")
    return MultiDiffOp(chain_from_json(data["symbol"], model))


def field_to_json(x: VectorField) -> dict:
    return {"components": [poly_to_json(c) for c in x.components]}


def field_from_json(data: dict, model: FlatModel) -> VectorField:
    from .symbols import VectorField
    if not isinstance(data, dict) or "components" not in data:
        raise ValueError("vector field JSON needs 'components'")
    comps = [poly_from_json(c, model.n_total)
             for c in _items(data, "components", "vector field")]
    if len(comps) != model.n_total:
        raise ValueError(f"need {model.n_total} components, got {len(comps)}")
    return VectorField(model, comps)


def multivector_to_json(x: MultiVector) -> dict:
    return {"degree": x.degree,
            "terms": [{"coeff_poly": poly_to_json(c), "indices": list(idx)}
                      for idx, c in x.sorted_terms()]}


def multivector_from_json(data: dict, model: FlatModel) -> MultiVector:
    from .symbols import MultiVector
    if not isinstance(data, dict) or "degree" not in data or "terms" not in data:
        raise ValueError("multivector JSON needs 'degree' and 'terms'")
    terms = []
    for item in _items(data, "terms", "multivector"):
        try:
            coeff = poly_from_json(item["coeff_poly"], model.n_total)
            idx = tuple(json_integer(i, "an index") for i in item["indices"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed multivector term {item}: {exc}") from exc
        terms.append((idx, coeff))
    try:
        return MultiVector(model, json_integer(data["degree"], "'degree'"), terms)
    except IndexError as exc:
        raise ValueError(f"multivector does not fit model {model}: {exc}") from exc


def star_to_json(star: TruncatedStar) -> dict:
    return {"order": star.order, "cochains": [op_to_json(c) for c in star.cochains]}


def star_from_json(data: dict, model: FlatModel) -> TruncatedStar:
    from .starprod import TruncatedStar
    if not isinstance(data, dict) or "order" not in data or "cochains" not in data:
        raise ValueError("star product JSON needs 'order' and 'cochains'")
    cochains = [op_from_json(c, model) for c in _items(data, "cochains", "star product")]
    if len(cochains) != json_integer(data["order"], "'order'"):
        raise ValueError("'order' does not match the number of cochains")
    return TruncatedStar(model, cochains)


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


# ---------------------------------------------------------------------------
# handlers of the commands that read --in FILE
# ---------------------------------------------------------------------------


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


def cmd_classify_function(model, args) -> dict:
    f = poly_from_json(_load(args.infile), model.n_total)
    return {"class": model.classify_function(f).value}


def cmd_classify_field(model, args) -> dict:
    from . import symbols
    x = field_from_json(_load(args.infile), model)
    return {"wobs": symbols.vf_membership(x, SubspaceTag.WOBS),
            "null": symbols.vf_membership(x, SubspaceTag.NULL)}


def cmd_classify_symbol(model, args) -> dict:
    from . import symbols
    chain = chain_from_json(_load(args.infile), model)
    if args.tag is not None:
        tag = SubspaceTag(args.tag)
        return {"tag": tag.value, "member": symbols.chain_membership(chain, tag)}
    return {"wobs": symbols.chain_membership(chain, SubspaceTag.WOBS),
            "null": symbols.chain_membership(chain, SubspaceTag.NULL)}


def cmd_classify_operator(model, args) -> dict:
    from . import diffops
    op = op_from_json(_load(args.infile), model)
    return {"wobs": diffops.op_membership(op, SubspaceTag.WOBS),
            "null": diffops.op_membership(op, SubspaceTag.NULL)}


def cmd_delta(model, args) -> dict:
    from . import diffops
    op = op_from_json(_load(args.infile), model)
    return op_to_json(diffops.hochschild_delta(op))


def cmd_bigd(model, args) -> dict:
    from . import symbols
    chain = chain_from_json(_load(args.infile), model)
    return chain_to_json(symbols.differential_d(chain))


def cmd_hkr(model, args) -> dict:
    from . import symbols
    x = multivector_from_json(_load(args.infile), model)
    return chain_to_json(symbols.hkr(x))


def cmd_decompose_cocycle(model, args) -> dict:
    from . import decompose
    chain = chain_from_json(_load(args.infile), model)
    dec = decompose.decompose_2cocycle(chain)
    ambient, reduced = decompose.class_maps(dec.cocycle_class)
    return {
        "class": {"X": multivector_to_json(dec.cocycle_class.bivector),
                  "psi": chain_to_json(dec.cocycle_class.normal_part)},
        "potential": chain_to_json(dec.potential),
        "ambient_bivector": multivector_to_json(ambient),
        "reduced_bivector": multivector_to_json(reduced),
    }


def cmd_find_potential(model, args) -> dict:
    from . import cohomology
    chain = chain_from_json(_load(args.infile), model)
    psi = cohomology.find_constraint_potential(chain)
    return {"has_constraint_potential": psi is not None,
            "potential": None if psi is None else chain_to_json(psi)}


def cmd_star_check(model, args) -> dict:
    from . import starprod
    star = star_from_json(_load(args.infile), model)
    violation = starprod.check_associativity(star)
    result = {"constraint": starprod.is_constraint_star(star),
              "associative": violation is None}
    if violation is not None:
        result["violation"] = {
            "order": violation.order,
            "arguments": [poly_to_json(p) for p in violation.arguments],
            "defect": poly_to_json(violation.defect),
        }
    return result


def cmd_star_equiv(model, args) -> dict:
    from . import starprod
    data = _load(args.infile)
    try:
        a = star_from_json(data["star"], model)
        b = star_from_json(data["star_prime"], model)
        agree_to = json_integer(data.get("agree_to", 0), "'agree_to'")
    except KeyError as exc:
        raise ValueError(f"star-equiv input needs 'star' and 'star_prime': {exc}") from exc
    report = starprod.equivalence_report(a, b, agree_to)
    s = report["S"]
    return {"order": report["order"],
            "plain_equivalent": report["plain_equivalent"],
            "constraint_equivalent": report["constraint_equivalent"],
            "S": None if s is None else op_to_json(s)}


def cmd_classify_star(model, args) -> dict:
    from . import starprod
    star = star_from_json(_load(args.infile), model)
    if star.order < 1:
        raise ValueError("classification needs a first-order cochain")
    cls = starprod.classify_infinitesimal(star.cochain(1))
    return {"X": multivector_to_json(cls.bivector),
            "psi": chain_to_json(cls.normal_part)}


def cmd_reduce(model, args) -> dict:
    data = _load(args.infile)
    reduced_model = model.reduced_model()
    if "components" in data:
        raise ValueError("reduction of plain vector fields is not provided; "
                         "pass a function or a multivector")
    if "arity" in data:
        raise ValueError("reduction of symbol chains is not provided; "
                         "pass a function or a multivector")
    if "degree" in data:
        from .decompose import reduce_multivector
        x = multivector_from_json(data, model)
        return {"kind": "multivector",
                "reduced_model": reduced_model._asdict(),
                "result": multivector_to_json(reduce_multivector(x))}
    f = poly_from_json(data, model.n_total)
    return {"kind": "function",
            "reduced_model": reduced_model._asdict(),
            "result": poly_to_json(model.reduce_function(f))}
