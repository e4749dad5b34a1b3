"""Versioned JSON encodings for forms, matrices, parameters and structures.

Scalars serialize as "p/q" strings in exact data and as floats otherwise;
a float coefficient inside exact-mode input is malformed (ParseError), not a
silent promotion.  Structures store content hashes; loading recomputes the
derived data and refuses a payload whose hashes do not match.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .bryant import TwistParams
from .context import Context
from .errors import DegreeError, ExactModeError, ParseError
from .exterior import DIM, NK, POS, KForm
from .g2core import G2Structure

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Sorted, compact, standard JSON: a NaN or an infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scalar_to_json(x):
    if isinstance(x, float):
        return x
    return str(Fraction(x))


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _plain_int(v) -> bool:
    """An int that is not a bool: JSON's true and 1.0 compare equal to 1 but are not counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def _scalar_from_json(v, ctx: Context):
    _require(isinstance(v, (int, float, str)) and not isinstance(v, bool), f"bad scalar {v!r}")
    try:
        return ctx.scalar(v)
    except ExactModeError as exc:
        raise ParseError(str(exc)) from exc


def kform_to_json(a: KForm) -> dict:
    return {
        "degree": a.degree,
        "entries": [
            {"idx": list(idx), "coeff": scalar_to_json(c)} for idx, c in a.entries()
        ],
    }


def kform_from_json(obj, ctx: Context) -> KForm:
    _require(isinstance(obj, dict), "form payload must be an object")
    _require(set(obj) == {"degree", "entries"}, "form payload needs exactly degree and entries")
    degree = obj["degree"]
    _require(_plain_int(degree) and 0 <= degree <= DIM, f"bad degree {degree!r}")
    entries = obj["entries"]
    _require(isinstance(entries, list), "entries must be a list")
    coeffs = [ctx.scalar(0)] * NK[degree]
    seen = set()
    for e in entries:
        _require(isinstance(e, dict) and set(e) == {"idx", "coeff"},
                 "each entry needs exactly idx and coeff")
        idx = e["idx"]
        _require(isinstance(idx, list) and len(idx) == degree, f"bad idx length in {e!r}")
        _require(all(_plain_int(i) and 1 <= i <= DIM for i in idx),
                 f"idx values must be 1..7 in {e!r}")
        key = tuple(idx)
        _require(all(a < b for a, b in zip(key, key[1:])), f"idx must be strictly increasing in {e!r}")
        _require(key not in seen, f"duplicate idx {key}")
        seen.add(key)
        coeffs[POS[degree][key]] = _scalar_from_json(e["coeff"], ctx)
    return KForm(degree, tuple(coeffs))


def matrix_to_json(rows) -> dict:
    flat_vals = [scalar_to_json(x) for row in rows for x in row]
    return {"shape": [DIM, DIM], "entries": flat_vals}


def matrix_from_json(obj, ctx: Context):
    _require(isinstance(obj, dict), "matrix payload must be an object")
    _require(set(obj) == {"shape", "entries"}, "matrix payload needs exactly shape and entries")
    shape = obj["shape"]
    _require(shape == [DIM, DIM] and all(_plain_int(n) for n in shape),
             f"matrix shape must be [7, 7], got {shape!r}")
    entries = obj["entries"]
    _require(isinstance(entries, list) and len(entries) == DIM * DIM,
             "matrix needs 49 row-major entries")
    vals = [_scalar_from_json(v, ctx) for v in entries]
    return tuple(tuple(vals[i * DIM:(i + 1) * DIM]) for i in range(DIM))


def twistparams_to_json(p: TwistParams) -> dict:
    return {"c": scalar_to_json(p.c), "omega": kform_to_json(p.omega)}


def twistparams_from_json(obj, ctx: Context) -> TwistParams:
    _require(isinstance(obj, dict), "parameter payload must be an object")
    _require(set(obj) == {"c", "omega"}, "parameter payload needs exactly c and omega")
    omega = kform_from_json(obj["omega"], ctx)
    try:
        return TwistParams(_scalar_from_json(obj["c"], ctx), omega)
    except DegreeError as exc:
        raise ParseError(str(exc)) from exc


def _derived_sha256(s: G2Structure) -> str:
    """Hash of the metric, orientation and vol a structure derives from phi."""
    return sha256_hex(canonical_json({
        "metric": matrix_to_json(s.metric.rows),
        "orientation": s.orientation.sign,
        "vol": kform_to_json(s.vol),
    }))


def g2structure_to_json(s: G2Structure) -> dict:
    phi_json = kform_to_json(s.phi)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": s.ctx.mode,
        "phi": phi_json,
        "phi_sha256": sha256_hex(canonical_json(phi_json)),
        "derived_sha256": _derived_sha256(s),
    }


def g2structure_from_json(obj) -> G2Structure:
    _require(isinstance(obj, dict), "structure payload must be an object")
    _require(
        set(obj) == {"schema_version", "mode", "phi", "phi_sha256", "derived_sha256"},
        "structure payload has unexpected keys",
    )
    version = obj["schema_version"]
    _require(_plain_int(version) and version == SCHEMA_VERSION,
             f"unsupported schema_version {version!r}")
    try:
        ctx = Context.of(obj["mode"])
    except ValueError as exc:
        raise ParseError(f"bad mode {obj['mode']!r}") from exc
    phi = kform_from_json(obj["phi"], ctx)
    if sha256_hex(canonical_json(kform_to_json(phi))) != obj["phi_sha256"]:
        raise ParseError("stored phi hash does not match the payload")
    s = G2Structure(phi, ctx)
    if _derived_sha256(s) != obj["derived_sha256"]:
        raise ParseError("regenerated metric/volume hash does not match the stored one")
    return s
