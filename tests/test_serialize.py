"""Round-trip and tamper tests for the JSON/CSV formats."""

import io
import json
import random

import numpy as np
import pytest

from fibered_lrc.construction import build_evaluation_set, surface_params
from fibered_lrc.lrc_code import code_profile, min_distance
from fibered_lrc.serialize import (
    ParseError,
    SchemaMismatch,
    codeword_from_dict,
    codeword_to_dict,
    decode_element,
    encode_element,
    evaluation_set_from_profile,
    field_from_dict,
    field_to_dict,
    load_json,
    profile_from_dict,
    profile_to_dict,
    save_json,
    write_table_csv,
)


@pytest.fixture(scope="module")
def es49(f49):
    return build_evaluation_set(surface_params(f49, 3), (0,))


def test_element_tokens(f49):
    # zero is the string "0"; the int 0 is the log of 1
    assert encode_element(f49, 0) == "0"
    assert decode_element(f49, "0") == 0
    assert decode_element(f49, 0) == 1
    for v in range(49):
        assert decode_element(f49, encode_element(f49, v)) == v
    for bad in (-1, 48, "x", 3.5, True, None):
        with pytest.raises(ParseError):
            decode_element(f49, bad)


def test_element_tokens_survive_json(f121):
    rng = random.Random(9)
    vals = [rng.randrange(121) for _ in range(60)] + [0, 1]
    wire = json.loads(json.dumps([encode_element(f121, v) for v in vals]))
    assert [decode_element(f121, tok) for tok in wire] == vals


def test_field_round_trip(f49, f625):
    for fld in (f49, f625):
        again = field_from_dict(json.loads(json.dumps(field_to_dict(fld))))
        assert again == fld
    with pytest.raises(ParseError):
        field_from_dict({"p": 7})


def test_profile_round_trip(es49, f49):
    dist = min_distance(es49)
    prof = code_profile(es49, dist)
    doc = json.loads(json.dumps(profile_to_dict(prof, f49)))
    prof2, fld2 = profile_from_dict(doc)
    assert prof2 == prof and fld2 == f49
    es2 = evaluation_set_from_profile(prof2, fld2)
    # equality skips xyt, which the orbits determine
    assert es2 == es49 and np.array_equal(es2.xyt, es49.xyt)


def test_profile_tamper(es49, f49):
    base = profile_to_dict(code_profile(es49), f49)
    for key, value in (("n", 17), ("k", 6), ("schema", "fibered-lrc/v0"),
                       ("kind", "codeword"), ("d_lower", 100),
                       # below n - 9, above the Singleton-type bound n - 5
                       ("d_lower", 6), ("d_upper", 12)):
        doc = dict(base)
        doc[key] = value
        with pytest.raises(SchemaMismatch):
            profile_from_dict(doc)
    doc = dict(base)
    del doc["q"]
    with pytest.raises(SchemaMismatch):
        profile_from_dict(doc)
    # well-typed documents that describe no code of this field
    exact = profile_to_dict(code_profile(es49, min_distance(es49)), f49)
    assert (exact["d_exact"], exact["d_witness"]) == (8, [0, "0", 20, "0", "0"])
    for key, value in (("q", 7), ("m", 3), ("availability", 5),
                       ("availability", 1),
                       ("d_witness", ["0"] * 5),             # the zero message
                       ("d_witness", [1, "0", 20, "0", "0"]),  # leads with g
                       ("d_exact", 7), ("d_upper", 9)):
        doc = dict(exact)
        doc[key] = value
        with pytest.raises(SchemaMismatch):
            profile_from_dict(doc)


def test_codeword_round_trip(es49, f49):
    rng = random.Random(3)
    symbols = [rng.randrange(49) for _ in range(es49.n)]
    symbols[5] = None  # erased positions survive the trip
    doc = json.loads(json.dumps(codeword_to_dict(f49, symbols)))
    fld, back = codeword_from_dict(doc)
    assert fld == f49 and back == symbols
    doc["n"] = es49.n + 1
    with pytest.raises(SchemaMismatch):
        codeword_from_dict(doc)


def test_save_load_json(tmp_path):
    path = tmp_path / "doc.json"
    with open(path, "w") as fh:
        save_json({"b": 1, "a": [2, "0"]}, fh)
    with open(path) as fh:
        assert load_json(fh) == {"b": 1, "a": [2, "0"]}
    path.write_text("{not json")
    with open(path) as fh:
        with pytest.raises(ParseError):
            load_json(fh)


def test_table_csv_format():
    buf = io.StringIO()
    write_table_csv([(49, 1, 1, 16, None, 8), (49, 1, 2, 32, 23, 24)], buf)
    assert buf.getvalue() == (
        "q,m,b,n,delta,d\n"
        "49,1,1,16,,8\n"
        "49,1,2,32,23,24\n")
