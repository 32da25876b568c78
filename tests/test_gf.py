import random
import tracemalloc

import numpy as np
import pytest

from fibered_lrc import gf, poly
from fibered_lrc.gf import (
    DivisionByZero,
    FieldSpec,
    FieldTooLarge,
    NonSquare,
    NotPrime,
    OrderNotDivisible,
    ReducibleModulus,
    UnsupportedCharacteristic,
    make_field,
    parse_field_label,
)
from kernel_oracle import (_extension_field, _prime_field, digit_add,
                           digit_neg, elements, order_key)

# Construction is deterministic, so these stay frozen.  Each value was first
# confirmed by an exhaustive oracle: the modulus is the lex-least monic
# irreducible (low-degree-first coefficients) and the generator is the
# lex-least element whose powers, one multiplication at a time, reach every
# nonzero element before 1 recurs.
FROZEN = {
    (5, 1): ((0, 1), 2),
    (7, 2): ((1, 0, 1), 15),
    (3, 4): ((1, 0, 1, 1, 1), 36),
    (11, 2): ((1, 0, 1), 45),
    (13, 2): ((1, 3, 1), 79),
    (5, 4): ((1, 0, 1, 1, 1), 150),
    (3, 6): ((1, 0, 0, 0, 1, 1, 1), 324),
    (7, 4): ((1, 0, 0, 1, 1), 1764),
    (3, 8): ((1, 0, 0, 0, 0, 1, 1, 0, 1), 2916),
    (3, 12): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1), 373977),
}


# F_3^12 (531 441 elements) takes about 0.4 s to build
@pytest.mark.parametrize("p,m", [
    pytest.param(*pm, marks=[pytest.mark.nightly] if pm == (3, 12) else [])
    for pm in sorted(FROZEN)])
def test_frozen_construction(p, m):
    f = make_field(p, m)
    modulus, gen = FROZEN[(p, m)]
    assert f.modulus == modulus
    assert f.gen == gen
    assert f.order == p**m


# (p, m, modulus): the last two of each degree 2 and 4 are non-default
# irreducible moduli, the F_13 one the linear X + 5
ORACLE_FIELDS = [
    (5, 1, None), (13, 1, None), (13, 1, (5, 1)), (101, 1, None),
    (1021, 1, None), (7, 2, None), (3, 4, None), (11, 2, None),
    (13, 2, None), (5, 4, None), (3, 6, None), (7, 4, None), (3, 8, None),
    (17, 2, None), (29, 2, None), (7, 2, (3, 1, 1)), (11, 2, (7, 1, 1)),
    (5, 4, (2, 0, 0, 0, 1)), (3, 4, (2, 0, 0, 1, 1)),
    pytest.param(1048573, 1, None, marks=pytest.mark.nightly),
    pytest.param(3, 12, None, marks=pytest.mark.nightly),
]


@pytest.mark.parametrize("p, m, modulus", ORACLE_FIELDS, ids=str)
def test_tables_match_walked_tables(p, m, modulus):
    # the matrix build against the step-by-step power walk (generator by
    # integer pow or by pow_mod on polynomials): same generator, EXP, LOG
    # and scalar negation
    fld = make_field(p, m, modulus)
    gen, exp, log, neg = (_prime_field(p, fld.modulus) if m == 1 else
                          _extension_field(make_field(p, 1), m, fld.modulus))
    assert fld.gen == gen
    assert fld._exp == exp
    assert fld._log == log
    assert [fld.neg(a) for a in range(fld.order)] == neg


def test_generator_minimality_oracle(f49):
    # every lex-smaller nonzero element has an early power equal to 1
    def lex_value(v):  # digits low-degree-first, compared elementwise
        return (v % 7, v // 7)

    for v in range(1, f49.order):
        if lex_value(v) >= lex_value(f49.gen):
            continue
        cur, k = v, 1
        while cur != 1:
            cur = f49.mul(cur, v)
            k += 1
        assert k < f49.order - 1


def test_mul_against_digit_oracle(f169):
    # independent schoolbook multiplication mod x^2 + 3x + 1 over F_13
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randrange(169), rng.randrange(169)
        a0, a1 = a % 13, a // 13
        b0, b1 = b % 13, b // 13
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -3x - 1
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        c1, c0 = (c1 - 3 * c2) % 13, (c0 - c2) % 13
        assert f169.mul(a, b) == c0 % 13 + 13 * (c1 % 13)


def test_field_axioms_random(f81):
    rng = random.Random(2)
    q = f81.order
    for _ in range(300):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f81.add(a, b) == f81.add(b, a)
        assert f81.mul(a, b) == f81.mul(b, a)
        assert f81.add(f81.add(a, b), c) == f81.add(a, f81.add(b, c))
        assert f81.mul(f81.mul(a, b), c) == f81.mul(a, f81.mul(b, c))
        assert f81.mul(a, f81.add(b, c)) == f81.add(f81.mul(a, b), f81.mul(a, c))
        assert f81.add(a, f81.neg(a)) == 0
        if a:
            assert f81.mul(a, f81.inv(a)) == 1
            assert f81.div(b, a) == f81.mul(b, f81.inv(a))


def test_pow(f49):
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(1, 49)
        e = rng.randrange(-5, 100)
        expected = 1
        for _ in range(abs(e)):
            expected = f49.mul(expected, a)
        if e < 0:
            expected = f49.inv(expected)
        assert f49.pow(a, e) == expected
    assert f49.pow(0, 0) == 1
    assert f49.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        f49.pow(0, -1)


def test_zero_has_no_inverse_or_log(f49):
    for call in (lambda: f49.inv(0), lambda: f49.div(3, 0), lambda: f49.log(0)):
        with pytest.raises(DivisionByZero, match="zero"):
            call()


def test_canonical_ordering(f49):
    elems = list(elements(f49))
    assert elems[0] == 0
    assert elems[1] == 1  # gen^0
    assert len(set(elems)) == 49
    assert order_key(f49, 0) == -1
    assert sorted([f49.gen, 0, 1], key=lambda a: order_key(f49, a)) == [
        0, 1, f49.gen]


def test_is_square_and_sqrt(f169, f13):
    # -1 is a square iff order = 1 mod 4
    assert f169.is_square(f169.neg(1))  # 169 = 1 mod 4
    assert f13.is_square(f13.neg(1))    # 13 = 1 mod 4
    f7 = make_field(7, 1)
    assert not f7.is_square(7 - 1)      # 7 = 3 mod 4
    assert f169.is_square(0) and f169.sqrt(0) == 0
    squares = 0
    for v in range(169):
        if f169.is_square(v):
            squares += 1
            s = f169.sqrt(v)
            assert f169.mul(s, s) == v
        else:
            with pytest.raises(NonSquare):
                f169.sqrt(v)
    assert squares == 1 + (169 - 1) // 2


def test_nth_root_of_unity(f13, f169):
    z = f13.nth_root_of_unity(4)
    assert f13.mul(z, z) == 13 - 1  # square is -1
    assert f13.pow(z, 4) == 1
    z4 = f169.nth_root_of_unity(4)
    assert f169.pow(z4, 4) == 1 and f169.pow(z4, 2) != 1
    with pytest.raises(OrderNotDivisible):
        f13.nth_root_of_unity(5)


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(UnsupportedCharacteristic):
        make_field(2, 3)
    with pytest.raises(FieldTooLarge):
        make_field(3, 14)
    with pytest.raises(ReducibleModulus):
        make_field(7, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(ReducibleModulus):
        make_field(7, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError, match="extension degree"):
        make_field(5, 0)


def test_huge_fields_rejected_before_primality_and_power():
    # neither sqrt(10^18)-step trial division nor 3^100000000 is computed
    for p, m in ((10**18 + 3, 1), (10**18, 1), (3, 10**8), (3, 22)):
        with pytest.raises(FieldTooLarge, match="exceeds"):
            make_field(p, m)


def test_explicit_modulus_hits_cache_before_irreducibility(f625, monkeypatch):
    def retest(f):
        raise AssertionError(f"irreducibility of {f} tested again")

    monkeypatch.setattr(poly, "is_irreducible", retest)
    assert make_field(5, 4, f625.modulus) is f625
    assert parse_field_label(f625.label) is f625
    with pytest.raises(ReducibleModulus):
        make_field(5, 4, modulus=(1, 0, 1, 1, 2))  # not monic


def test_alternative_modulus():
    # x^2 + x + 3 is irreducible over F_7 (disc = 1 - 12 = 3, a non-square)
    f = make_field(7, 2, modulus=(3, 1, 1))
    assert f.modulus == (3, 1, 1)
    assert f != make_field(7, 2)
    rng = random.Random(4)
    for _ in range(50):
        a, b = rng.randrange(49), rng.randrange(49)
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, b) == f.mul(b, a)


def test_label_round_trip(f169):
    assert f169.label == "13^2/1,3,1"
    assert parse_field_label("13^2/1,3,1") is f169
    assert parse_field_label("13^2") is f169
    with pytest.raises(ValueError):
        parse_field_label("garbage")


def check_vector_ops(fld, cols):
    """On element arrays a, b, c, d, element by element: vsum of 2, 3 and
    4 terms, NEG and the scalar add and neg equal the digit-wise oracles;
    vmul and INV equal the scalar mul and inv."""
    a, b, c, d = (np.asarray(col, dtype=np.int64) for col in cols)
    tabs = fld.np_tables()
    got = [fld.vsum(a, b), fld.vsum(a, b, c), fld.vsum(a, b, c, d),
           fld.vmul(a, b), tabs["NEG"][a], tabs["INV"][a]]
    for row in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                   *(g.tolist() for g in got)):
        x, y, z, w, s2, s3, s4, prod, neg, inv = row
        assert s2 == fld.add(x, y) == digit_add(fld, x, y), row
        assert s3 == fld.add(s2, z) == digit_add(fld, s2, z), row
        assert s4 == fld.add(s3, w) == digit_add(fld, s3, w), row
        assert neg == fld.neg(x) == digit_neg(fld, x), row
        assert prod == fld.mul(x, y), row
        assert inv == (fld.inv(x) if x else 0), row


def test_np_tables(f49):
    # all q² pairs (a, b); c and d run over the elements in two other orders
    a, b = np.divmod(np.arange(49 * 49), 49)
    check_vector_ops(f49, (a, b, (a + 3 * b) % 49, 48 - b))


# a prime field and, from ORACLE_FIELDS, every non-default modulus join the
# default ones, which keep their p-m ids
VECTOR_FIELDS = [(13, 1, None), (3, 5, None), (5, 4, None), (7, 4, None),
                 (3, 8, None), (101, 1, None),
                 *(f for f in ORACLE_FIELDS if type(f) is tuple and f[2])]


@pytest.mark.parametrize("p, m, modulus", [
    pytest.param(*f, id="-".join(map(str, f if f[2] else f[:2])))
    for f in VECTOR_FIELDS])
def test_vector_ops_random(p, m, modulus):
    fld = make_field(p, m, modulus)
    q = fld.order
    rng = random.Random(repr((p, m, modulus) if modulus else (p, m)))
    # q - 1 has every digit p - 1: four of them reach the largest digit sums
    cols = [[q - 1] * 4 + [rng.randrange(q) for _ in range(1500)]
            for _ in range(4)]
    check_vector_ops(fld, cols)
    with pytest.raises(ValueError, match="at most four"):
        fld.vsum(*[cols[0]] * 5)
    with pytest.raises(ValueError, match="1 to at most four terms, got 0"):
        fld.vsum()
    # one term reduces to itself; a scalar or a row broadcasts to later terms
    assert fld.vsum(cols[0]).tolist() == cols[0]
    assert fld.vsum(1, cols[1]).tolist() == [fld.add(1, v) for v in cols[1]]
    row, grid = cols[2][:4], np.reshape(cols[3][:12], (3, 4))
    assert fld.vsum(row, grid).tolist() == \
        [[fld.add(a, b) for a, b in zip(row, line)] for line in grid.tolist()]


def test_np_tables_are_built_once():
    # a field built past the cache: the constructor made the arrays, so
    # np_tables() hands out the same dict each time, and neither it nor
    # vmul and vsum leave anything allocated
    modulus = make_field(3, 5).modulus
    fld = FieldSpec(3, 5, modulus, *gf._tables(3, 5, modulus))
    tracemalloc.start()
    try:
        tabs = fld.np_tables()
        same = all(fld.np_tables() is tabs for _ in range(3))
        fld.vsum(fld.vmul(1, 2), 3)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, gf.__file__)])
    finally:
        tracemalloc.stop()
    assert same
    assert sum(stat.size for stat in snap.statistics("filename")) == 0
    assert set(tabs) == {"EXP", "LOG", "NEG", "INV", "SPREAD", "RED_LO",
                         "RED_HI"}


@pytest.mark.parametrize("p, m", [(13, 1), (7, 2), (3, 5), (5, 4), (7, 4),
                                  (3, 8)])
def test_np_tables_hold_no_pair_table(p, m):
    fld = make_field(p, m)
    q = fld.order
    cap = max(4 * q, (4 * p - 3) ** ((m + 1) // 2))
    sizes = {name: arr.size for name, arr in fld.np_tables().items()}
    # the scalar operations' lists, however they are named
    sizes.update((name, len(getattr(fld, name))) for name in fld.__slots__
                 if isinstance(getattr(fld, name, None), list))
    assert all(size <= cap for size in sizes.values()), (cap, sizes)


@pytest.mark.parametrize("p, m", [(13, 1), (7, 2), (3, 8)])
def test_scalar_ops_return_builtin_ints(p, m):
    # encode, repair and serialize refuse symbols that are not ints
    fld = make_field(p, m)
    a, b = fld.gen, fld.add(fld.gen, 1)
    values = [fld.add(a, b), fld.neg(a), fld.sub(a, b), fld.mul(a, b),
              fld.inv(a), fld.div(a, b), fld.pow(a, 5), fld.pow(a, -3),
              fld.from_log(7), fld.sqrt(fld.mul(a, a)),
              fld.nth_root_of_unity(2)]
    assert all(type(v) is int for v in values), [type(v) for v in values]
