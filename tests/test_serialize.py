"""JSON round trips for every interface object, and the decoders on
malformed input."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conhoch import (FlatModel, MultiDiffOp, MultiVector, Poly, SymbolChain, TruncatedStar,
                     VectorField, hkr, printer, serialize)
from conhoch.serialize import (chain_from_json, chain_to_json,
                               field_from_json, field_to_json,
                               multivector_from_json, multivector_to_json,
                               op_from_json, op_to_json, poly_from_json,
                               poly_to_json, star_from_json)

from conftest import rand_chain, rand_poly


def test_model_round_trip():
    # rows print a model as its _asdict()
    m = FlatModel(4, 3, 1)
    data = m._asdict()
    assert data == {"n_total": 4, "n_wobs": 3, "n_null": 1}
    assert FlatModel(**json.loads(json.dumps(data))) == m


def test_poly_round_trip_and_format():
    p = Poly.monomial((2, 0, 1), Fraction(-3, 4)) + Poly.constant(3, 5)
    data = poly_to_json(p)
    assert data == {"terms": [{"coeff": [-3, 4], "exp": [2, 0, 1]},
                              {"coeff": [5, 1], "exp": [0, 0, 0]}]}
    assert poly_from_json(data, 3) == p
    assert poly_from_json({"terms": []}, 3).is_zero()


def test_poly_round_trip_randomized():
    rng = random.Random(900)
    for _ in range(40):
        p = rand_poly(rng, 4, 3, 3)
        assert poly_from_json(json.loads(json.dumps(poly_to_json(p))), 4) == p


def test_poly_validation_errors():
    with pytest.raises(ValueError):
        poly_from_json({"terms": [{"coeff": [1, 1], "exp": [0, 0]}]}, 3)
    with pytest.raises(ValueError):
        poly_from_json({"nope": 1}, 3)


def test_chain_round_trip(m321):
    rng = random.Random(901)
    for _ in range(30):
        chain = rand_chain(rng, m321, rng.randint(1, 3), 4, 2)
        data = json.loads(json.dumps(chain_to_json(chain)))
        assert chain_from_json(data, m321) == chain


def test_chain_json_shape(m321):
    chain = SymbolChain.from_term(m321, [(1, 3)], Poly.monomial((0, 1, 0)))
    assert chain_to_json(chain) == {
        "arity": 1,
        "terms": [{"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 1, 0]}]},
                   "slots": [[1, 3]]}],
    }


def test_operator_and_star_round_trip(m321):
    op = MultiDiffOp(hkr(MultiVector.wedge_of_frames(m321, (1, 3))))
    assert op_from_json(json.loads(json.dumps(op_to_json(op))), m321) == op
    back = star_from_json({"order": 1, "cochains": [op_to_json(op)]}, m321)
    assert back.order == 1 and back.cochain(1) == op


def test_star_validation(m321):
    with pytest.raises(ValueError):
        star_from_json({"order": 2, "cochains": []}, m321)


def test_field_and_multivector_round_trip(m321):
    x = VectorField(m321, [Poly.monomial((0, 1, 0)), Poly.zero(3), Poly.constant(3, 1)])
    assert field_from_json(json.loads(json.dumps(field_to_json(x))), m321) == x
    mv = MultiVector.wedge_of_frames(m321, (1, 3), Poly.monomial((1, 0, 0)))
    assert multivector_from_json(
        json.loads(json.dumps(multivector_to_json(mv))), m321) == mv


def test_field_validation(m321):
    with pytest.raises(ValueError):
        field_from_json({"components": [poly_to_json(Poly.zero(3))]}, m321)


# ---------------------------------------------------------------------------
# decoders on generated JSON
# ---------------------------------------------------------------------------

#: scalars that JSON can carry, with small integers most often; floats
#: include fractions, infinities (1e400 parses as inf) and NaN
_scalars = st.one_of(st.integers(-1, 4), st.integers(-1, 4), st.integers(),
                     st.none(), st.booleans(), st.floats(), st.text(max_size=2))
_json_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=8)


def _array_or(values):
    return st.lists(values, max_size=3) | _scalars


def _doc(**fields):
    return st.fixed_dictionaries({k: v | _scalars for k, v in fields.items()})


_poly_docs = _doc(terms=_array_or(_doc(coeff=_array_or(_scalars),
                                       exp=_array_or(_scalars))))
_chain_docs = _doc(arity=_scalars,
                   terms=_array_or(_doc(coeff_poly=_poly_docs,
                                        slots=_array_or(_array_or(_scalars)))))
_op_docs = _doc(symbol=_chain_docs)
_documents = st.one_of(
    _json_values, _poly_docs, _chain_docs, _op_docs,
    _doc(components=_array_or(_poly_docs)),
    _doc(degree=_scalars, terms=_array_or(_doc(coeff_poly=_poly_docs,
                                               indices=_array_or(_scalars)))),
    _doc(order=_scalars, cochains=_array_or(_op_docs)))

_M321 = FlatModel(3, 2, 1)
_DECODER_ARGS = {"poly_from_json": (3,)}
_DECODERS = sorted(name for name in vars(serialize) if name.endswith("_from_json"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_DECODERS), _documents)
def test_decoders_return_or_raise_value_error(name, document):
    # malformed input must surface as ValueError, which the CLI reports
    # as a one-line error, never as another exception
    decode = getattr(serialize, name)
    args = _DECODER_ARGS.get(name, (_M321,))
    try:
        decode(json.loads(json.dumps(document)), *args)
    except ValueError:
        pass


@pytest.mark.parametrize("value, expected", [(2, 2), (2.0, 2), (-1, -1)])
def test_json_integer_accepts_integral_numbers(value, expected):
    assert serialize.json_integer(value, "x") == expected


@pytest.mark.parametrize("value", [1.5, float("inf"), float("nan"), True, None, "2", [2]])
def test_json_integer_rejects_everything_else(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        serialize.json_integer(value, "x")


_polys3 = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          max_size=3).map(lambda terms: Poly(3, terms))
_words3 = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda w: tuple(sorted(w)))
_encoded = st.one_of(
    st.integers(1, 3).flatmap(lambda arity: st.lists(
        st.tuples(st.tuples(*[_words3] * arity), _polys3), max_size=3).map(
        lambda terms: (SymbolChain(_M321, arity, terms), chain_to_json))),
    st.integers(1, 3).flatmap(lambda degree: st.lists(
        st.tuples(st.sets(st.integers(1, 3), min_size=degree, max_size=degree).map(
            lambda idx: tuple(sorted(idx))), _polys3), max_size=3).map(
        lambda terms: (MultiVector(_M321, degree, terms), multivector_to_json))),
    st.lists(_polys3, min_size=3, max_size=3).map(
        lambda comps: (VectorField(_M321, comps), field_to_json)))


@settings(max_examples=150, deadline=None)
@given(_encoded)
def test_repr_is_the_table_text_of_the_encoding(case):
    # one printer: a chain, multivector or vector field prints as the
    # --format table text of its JSON encoding
    value, encode = case
    data = encode(value)
    assert repr(value) == printer.to_text(data)
    # a value is zero exactly when its encoding has no term
    parts = data["components"] if "components" in data else [data]
    assert (repr(value) == "0") == all(not part["terms"] for part in parts)


def test_reprs_of_the_encoded_values_are_pinned():
    # poly._Frozen prints every value whose class names an encoder; a star
    # product names none and keeps the default repr
    x1 = Poly.monomial((1, 0, 0))
    chain = (SymbolChain.from_term(_M321, [(1,), (2, 3)], x1)
             + SymbolChain.from_term(_M321, [(3,), (3,)], -2))
    assert repr(chain) == "(x1) d1(x)d2vd3  +  (-2) d3(x)d3"
    assert repr(SymbolChain.zero(_M321, 2)) == "0"
    assert repr(MultiVector.wedge_of_frames(_M321, (1, 3)).scale(x1)) == "(x1) d1^d3"
    field = VectorField(_M321, [x1, Poly.zero(3), Poly.constant(3, 2)])
    assert repr(field) == "(x1) d1  +  (2) d3"
    assert repr(TruncatedStar(_M321, [])).startswith("<conhoch.starprod.TruncatedStar object at ")


@given(_polys3)
def test_poly_text_is_the_table_text_of_the_encoding(p):
    assert str(p) == printer.to_text(poly_to_json(p))


def test_to_text_of_other_values_is_none():
    assert printer.to_text(_M321._asdict()) is None
    assert printer.to_text({"order": 1}) is None
    assert printer.to_text([1, 2]) is None
    assert printer.to_text(None) is None
