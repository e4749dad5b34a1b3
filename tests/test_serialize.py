"""JSON payload round trips and the strict-rejection catalogue."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit.context import EXACT, FLOAT
from g2kit.errors import ParseError
from g2kit.exterior import DIM, KForm
from g2kit.bryant import TwistParams, sample_params
from g2kit.g2core import phi0, standard_structure
from g2kit.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    g2structure_from_json,
    g2structure_to_json,
    kform_from_json,
    kform_to_json,
    matrix_from_json,
    matrix_to_json,
    sha256_hex,
    twistparams_from_json,
    twistparams_to_json,
)


def coeffs(n):
    return st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=n, max_size=n,
    )


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, {"y": 3, "x": "4"}]})
    b = canonical_json({"a": [2, {"x": "4", "y": 3}], "b": 1})
    assert a == b
    assert " " not in a
    assert sha256_hex(a) == sha256_hex(b)


@given(coeffs(35))
@settings(max_examples=50, deadline=None)
def test_kform_roundtrip_exact(cs):
    a = KForm(3, tuple(cs))
    assert kform_from_json(kform_to_json(a), EXACT) == a


def test_kform_roundtrip_float():
    a = KForm(2, tuple(float(i) / 7 for i in range(21)))
    b = kform_from_json(kform_to_json(a), FLOAT)
    assert b.isclose(a, 0.0)
    assert not b.is_exact


def test_kform_json_drops_zero_entries():
    payload = kform_to_json(phi0())
    assert len(payload["entries"]) == 7
    assert payload["degree"] == 3
    assert all(e["coeff"] in ("1", "-1") for e in payload["entries"])


def test_float_coeff_rejected_in_exact_mode():
    obj = {"degree": 1, "entries": [{"idx": [1], "coeff": 0.5}]}
    with pytest.raises(ParseError):
        kform_from_json(obj, EXACT)
    assert kform_from_json(obj, FLOAT).coeff(1) == 0.5


@pytest.mark.parametrize("obj", [
    "not an object",
    {"degree": 1},
    {"degree": 1, "entries": [], "extra": 0},
    {"degree": True, "entries": []},
    {"degree": 8, "entries": []},
    {"degree": -1, "entries": []},
    {"degree": 2, "entries": {}},
    {"degree": 2, "entries": [{"idx": [1, 2]}]},
    {"degree": 2, "entries": [{"idx": [1, 2], "coeff": "1", "why": 0}]},
    {"degree": 2, "entries": [{"idx": [1], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [2, 1], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [1, 1], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [0, 2], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [1, 8], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [True, 2], "coeff": "1"}]},
    {"degree": 2, "entries": [{"idx": [1, 2], "coeff": "1"},
                              {"idx": [1, 2], "coeff": "2"}]},
    {"degree": 2, "entries": [{"idx": [1, 2], "coeff": True}]},
    {"degree": 2, "entries": [{"idx": [1, 2], "coeff": "1/0"}]},
    {"degree": 2, "entries": [{"idx": [1, 2], "coeff": "pi"}]},
])
def test_malformed_kform_payloads(obj):
    with pytest.raises(ParseError):
        kform_from_json(obj, EXACT)


def test_matrix_roundtrip():
    rows = tuple(tuple(Fraction(i - j, 3) for j in range(DIM)) for i in range(DIM))
    assert matrix_from_json(matrix_to_json(rows), EXACT) == rows


@pytest.mark.parametrize("obj", [
    [],
    {"shape": [7, 7]},
    {"shape": [6, 7], "entries": ["0"] * 42},
    {"shape": [7, 7], "entries": ["0"] * 48},
    {"shape": [7, 7], "entries": ["0"] * 48 + [None]},
    {"shape": [7.0, 7.0], "entries": ["0"] * 49},
    {"shape": [7, 7.0], "entries": ["0"] * 49},
])
def test_malformed_matrix_payloads(obj):
    with pytest.raises(ParseError):
        matrix_from_json(obj, EXACT)


def test_params_roundtrip(rng):
    p = sample_params(rng)
    q = twistparams_from_json(twistparams_to_json(p), EXACT)
    assert q.c == p.c and q.omega == p.omega


@pytest.mark.parametrize("obj", [
    {"c": "1"},
    {"c": "1", "omega": {"degree": 1, "entries": []}, "x": 0},
    {"c": True, "omega": {"degree": 1, "entries": []}},
    {"c": "1", "omega": {"degree": 2, "entries": []}},
])
def test_malformed_params_payloads(obj):
    with pytest.raises(ParseError):
        twistparams_from_json(obj, EXACT)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_structure_roundtrip(mode):
    s = standard_structure(mode)
    obj = g2structure_to_json(s)
    assert obj["schema_version"] == SCHEMA_VERSION
    assert obj["mode"] == mode
    t = g2structure_from_json(json.loads(json.dumps(obj)))
    assert t.ctx.mode == mode
    assert t.phi.isclose(s.phi, 0.0)


def test_structure_hash_tamper_detected():
    obj = g2structure_to_json(standard_structure())
    evil = json.loads(json.dumps(obj))
    evil["phi"]["entries"][0]["coeff"] = "2"
    with pytest.raises(ParseError, match="hash"):
        g2structure_from_json(evil)
    evil2 = json.loads(json.dumps(obj))
    evil2["derived_sha256"] = "0" * 64
    with pytest.raises(ParseError, match="hash"):
        g2structure_from_json(evil2)


@pytest.mark.parametrize("mangle", [
    lambda o: o.pop("mode"),
    lambda o: o.update(schema_version=2),
    lambda o: o.update(mode="interval"),
    lambda o: o.update(extra=1),
    lambda o: o.update(schema_version=True),
    lambda o: o.update(schema_version=1.0),
    lambda o: o.update(schema_version="1"),
])
def test_malformed_structure_payloads(mangle):
    obj = g2structure_to_json(standard_structure())
    evil = json.loads(json.dumps(obj))
    mangle(evil)
    with pytest.raises(ParseError):
        g2structure_from_json(evil)


def test_scalar_strings_survive_roundtrip():
    p = TwistParams(Fraction(-3, 5), KForm.from_entries(1, {(2,): Fraction(4, 5)}))
    text = canonical_json(twistparams_to_json(p))
    assert '"-3/5"' in text
    q = twistparams_from_json(json.loads(text), EXACT)
    assert q.c == Fraction(-3, 5)
