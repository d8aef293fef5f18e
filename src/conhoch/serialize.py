"""JSON encodings for every object crossing the tool boundary.

All rationals travel as exact [numerator, denominator] pairs; no
floating point appears in any interface.  Encoders emit terms in the
canonical order so output is byte-deterministic; decoders validate and
raise ValueError on malformed input (the CLI maps that to exit code 1).
Chains and multivectors share one decoder, :func:`_term_map`: the grade
under the class's JSON grade key (``arity`` or ``degree``), then a
coefficient and a key per term.
Outside this module an encoder is reached only through the name its
class gives in ``_encoder`` (by ``cli.emit_report`` and the reprs), and
the human text of an encoded value comes from :mod:`conhoch.printer`.

:func:`_load` reads the JSON object of ``--in FILE`` for every command
that takes one.  Each such handler lives with the code it runs and
imports this module when it runs; only the two whose input may be a
plain function live here, :func:`cmd_classify_function` and
:func:`cmd_reduce`.  Each decoder imports the modules it builds
with on first use, so a command that reads only models and polynomials
never loads ``symbols``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .model import FlatModel
from .poly import Poly

if TYPE_CHECKING:  # the decoders import these on first use
    from .diffops import MultiDiffOp
    from .fields import VectorField
    from .starprod import TruncatedStar
    from .multivector import MultiVector
    from .symbols import SymbolChain


def json_integer(value, what: str) -> int:
    """An integer field of a JSON document: a JSON integer, or a number
    with an integral value such as 2.0.  Booleans, strings, fractional
    numbers and infinities are malformed input."""
    if type(value) is int:  # not bool, a subclass of int
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


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
    terms = []
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
        terms.append((exp, coeff))
    return Poly(nvars, terms)


def chain_to_json(chain: SymbolChain) -> dict:
    return {"arity": chain.arity,
            "terms": [{"coeff_poly": poly_to_json(coeff), "slots": [list(w) for w in slots]}
                      for slots, coeff in chain.sorted_terms()]}


def _term_map(data: dict, model: FlatModel, cls, what: str, read_key):
    """Decode a chain or a multivector: the grade under the class's JSON
    grade key, then per term a coefficient and the key that read_key
    reads from the term."""
    grade = cls._grade_name
    if not isinstance(data, dict) or grade not in data or "terms" not in data:
        raise ValueError(f"{what} JSON needs {grade!r} and 'terms'")
    n = json_integer(data[grade], repr(grade))
    terms = []
    for item in _items(data, "terms", what):
        try:
            coeff = poly_from_json(item["coeff_poly"], model.n_total)
            terms.append((read_key(item), coeff))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {what} term {item}: {exc}") from exc
    try:
        return cls(model, n, terms)
    except IndexError as exc:
        raise ValueError(f"{what} does not fit model {model}: {exc}") from exc


def chain_from_json(data: dict, model: FlatModel) -> SymbolChain:
    from .symbols import SymbolChain
    return _term_map(data, model, SymbolChain, "symbol chain", lambda item: tuple(
        tuple(sorted(json_integer(i, "a slot letter") for i in w)) for w in item["slots"]))


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
    from .fields import VectorField
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
    from .multivector import MultiVector
    return _term_map(data, model, MultiVector, "multivector",
                     lambda item: tuple(json_integer(i, "an index") for i in item["indices"]))


def star_from_json(data: dict, model: FlatModel) -> TruncatedStar:
    from .starprod import TruncatedStar
    if not isinstance(data, dict) or "order" not in data or "cochains" not in data:
        raise ValueError("star product JSON needs 'order' and 'cochains'")
    cochains = [op_from_json(c, model) for c in _items(data, "cochains", "star product")]
    if len(cochains) != json_integer(data["order"], "'order'"):
        raise ValueError("'order' does not match the number of cochains")
    return TruncatedStar(model, cochains)


# ---------------------------------------------------------------------------
# the --in FILE reader and the handlers that compute on functions
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


def cmd_reduce(model, args) -> dict:
    data = _load(args.infile)
    if "components" in data:
        raise ValueError("reduction of plain vector fields is not provided; "
                         "pass a function or a multivector")
    if "arity" in data:
        raise ValueError("reduction of symbol chains is not provided; "
                         "pass a function or a multivector")
    if "degree" in data:
        from .decompose import reduce_multivector
        kind, result = "multivector", reduce_multivector(multivector_from_json(data, model))
    else:
        kind, result = "function", model.reduce_function(poly_from_json(data, model.n_total))
    return {"kind": kind, "reduced_model": model.reduced_model()._asdict(), "result": result}
