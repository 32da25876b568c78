import random

import pytest

from fibered_lrc import poly
from fibered_lrc.gf import (
    DivisionByZero,
    FieldTooLarge,
    NonSquare,
    NotPrime,
    OrderNotDivisible,
    ReducibleModulus,
    UnsupportedCharacteristic,
    make_field,
    parse_field_label,
)

# Construction is deterministic, so these stay frozen.  Each value was first
# confirmed by an exhaustive oracle: the modulus is the lex-least monic
# irreducible (low-degree-first coefficients) and the generator is the
# lex-least element whose step-by-step power walk has full length.
FROZEN = {
    (5, 1): ((0, 1), 2),
    (7, 2): ((1, 0, 1), 15),
    (3, 4): ((1, 0, 1, 1, 1), 36),
    (11, 2): ((1, 0, 1), 45),
    (13, 2): ((1, 3, 1), 79),
    (5, 4): ((1, 0, 1, 1, 1), 150),
}


@pytest.mark.parametrize("p,m", sorted(FROZEN))
def test_frozen_construction(p, m):
    f = make_field(p, m)
    modulus, gen = FROZEN[(p, m)]
    assert f.modulus == modulus
    assert f.gen == gen
    assert f.order == p**m


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


def test_canonical_ordering(f49):
    elems = list(f49.elements())
    assert elems[0] == 0
    assert elems[1] == 1  # gen^0
    assert len(set(elems)) == 49
    assert f49.order_key(0) == -1
    assert sorted([f49.gen, 0, 1], key=f49.order_key) == [0, 1, f49.gen]


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


def test_np_tables(f49):
    t = f49.np_tables()
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(49), rng.randrange(49)
        assert int(t["ADD"][a, b]) == f49.add(a, b)
        assert int(t["MUL"][a, b]) == f49.mul(a, b)
        assert int(t["NEG"][a]) == f49.neg(a)
        if a:
            assert int(t["INV"][a]) == f49.inv(a)
