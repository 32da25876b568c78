"""Versioned JSON I/O for profiles and codewords; table CSV.

Field elements travel as discrete-log indices.  Zero has no logarithm, so
it is written as the string token "0"; every nonzero element v is the
integer log_g(v).  Files therefore do not depend on the raw bit layout of
the field implementation, only on the canonical generator.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields

from .construction import EvaluationSet, build_evaluation_set, surface_params
from .gf import FieldSpec, make_field, parse_field_label
from .lrc_code import CodeProfile

SCHEMA = "fibered-lrc/v1"

TABLE_COLUMNS = ("q", "m", "b", "n", "delta", "d")


class ParseError(ValueError):
    """Input is not well-formed or not shaped like the expected document."""


class SchemaMismatch(ValueError):
    """Schema tag or an internal consistency invariant failed on read."""


def encode_element(fld: FieldSpec, v: int):
    return "0" if v == 0 else fld.log(v)


def _int(value) -> int:
    # bools are ints in Python, and int() would take floats and strings
    if type(value) is not int:
        raise ParseError(f"expected an integer, got {type(value).__name__}")
    return value


def decode_element(fld: FieldSpec, tok) -> int:
    if tok == "0":
        return 0
    if not 0 <= _int(tok) < fld.order - 1:
        raise ParseError(f"bad element token {tok!r} for {fld.label}")
    return fld.from_log(tok)


def field_to_dict(fld: FieldSpec) -> dict:
    return {"p": fld.p, "m": fld.m, "modulus": list(fld.modulus)}


def field_from_dict(d) -> FieldSpec:
    try:
        return make_field(_int(d["p"]), _int(d["m"]),
                          tuple(map(_int, d["modulus"])))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad field block: {exc}") from None


def _field_from_label(label: str) -> FieldSpec:
    if not isinstance(label, str) or "/" not in label:
        raise ParseError(f"bad field label {label!r}")
    return parse_field_label(label)


def _expect(d, kind: str) -> None:
    if not isinstance(d, dict):
        raise ParseError("document is not a JSON object")
    if d.get("schema") != SCHEMA:
        raise SchemaMismatch(f"schema {d.get('schema')!r}, wanted {SCHEMA!r}")
    if d.get("kind") != kind:
        raise SchemaMismatch(f"kind {d.get('kind')!r}, wanted {kind!r}")


def profile_to_dict(prof: CodeProfile, fld: FieldSpec) -> dict:
    doc = {"schema": SCHEMA, "kind": "profile", **asdict(prof)}
    if prof.d_witness is not None:
        doc["d_witness"] = [encode_element(fld, v) for v in prof.d_witness]
    return doc


def _profile_value(fld: FieldSpec, attr, value):
    """One CodeProfile field from its JSON value; _int refuses a wrong type."""
    if value is None and attr.default is None:  # d_exact, d_witness may be null
        return None
    if attr.name == "d_witness":
        return tuple(decode_element(fld, tok) for tok in value)
    if attr.name == "orbit_indices":
        return tuple(map(_int, value))
    return value if attr.name == "field_label" else _int(value)


def profile_from_dict(d) -> tuple[CodeProfile, FieldSpec]:
    _expect(d, "profile")
    try:
        fld = _field_from_label(d["field_label"])
        prof = CodeProfile(**{f.name: _profile_value(fld, f, d[f.name])
                              for f in fields(CodeProfile)})
    except (KeyError, TypeError, AssertionError) as exc:
        raise SchemaMismatch(f"profile invariants violated: {exc}") from None
    sp = surface_params(fld, prof.r)
    if (prof.q, prof.m) != (sp.q, sp.m):
        raise SchemaMismatch(
            f"profile invariants violated: q={prof.q}, m={prof.m} do not fit "
            f"r={prof.r} over {fld.label}")
    return prof, fld


def evaluation_set_from_profile(prof: CodeProfile,
                                fld: FieldSpec) -> EvaluationSet:
    """Rebuild the evaluation set a profile describes (n is CodeProfile's)."""
    return build_evaluation_set(surface_params(fld, prof.r), prof.orbit_indices)


def codeword_to_dict(fld: FieldSpec, symbols) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "codeword",
        "field": field_to_dict(fld),
        "n": len(symbols),
        "symbols": [None if v is None else encode_element(fld, v)
                    for v in symbols],
    }


def codeword_from_dict(d) -> tuple[FieldSpec, list]:
    """Returns (field, symbols); erased positions come back as None."""
    _expect(d, "codeword")
    try:
        fld = field_from_dict(d["field"])
        raw = d["symbols"]
        n = _int(d["n"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad codeword document: {exc}") from None
    if not isinstance(raw, list):
        raise ParseError(f"codeword symbols must be a list, got {type(raw).__name__}")
    if len(raw) != n:
        raise SchemaMismatch(f"n={n} but {len(raw)} symbols present")
    return fld, [None if tok is None else decode_element(fld, tok)
                 for tok in raw]


def save_json(obj: dict, fileobj) -> None:
    json.dump(obj, fileobj, indent=2, sort_keys=True)
    fileobj.write("\n")


def load_json(fileobj) -> dict:
    try:
        return json.load(fileobj)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None


def write_table_csv(rows, fileobj) -> None:
    """Rows of (q, m, b, n, delta, d); delta None prints as empty."""
    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(TABLE_COLUMNS)
    for q, m, b, n, delta, d in rows:
        w.writerow([q, m, b, n, "" if delta is None else delta, d])
