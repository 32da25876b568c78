import random

import pytest

from fibered_lrc.gf import DivisionByZero, FieldMismatch, make_field
from fibered_lrc.poly import (
    all_roots,
    constant,
    is_irreducible,
    poly,
    poly_gcd,
    pow_mod,
    splits_completely_distinct,
    x_poly,
)


def rand_poly(field, rng, max_deg):
    return poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


def test_normalization(f49):
    f = poly(f49, [1, 2, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    z = poly(f49, [0, 0])
    assert z.is_zero and z.degree == -1


def test_ring_axioms_random(f49):
    rng = random.Random(10)
    for _ in range(100):
        a = rand_poly(f49, rng, 4)
        b = rand_poly(f49, rng, 3)
        c = rand_poly(f49, rng, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a - a).is_zero
        if not b.is_zero:
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_mul_degree(f49):
    rng = random.Random(11)
    for _ in range(50):
        a = rand_poly(f49, rng, 5)
        b = rand_poly(f49, rng, 5)
        if not (a.is_zero or b.is_zero):
            assert (a * b).degree == a.degree + b.degree


def test_divmod_by_zero(f49):
    with pytest.raises(DivisionByZero):
        divmod(x_poly(f49), poly(f49, []))


def test_field_mismatch(f49, f81):
    with pytest.raises(FieldMismatch):
        _ = x_poly(f49) + x_poly(f81)


def test_eval_and_derivative(f13):
    # f = x^3 + 2x + 5 over F_13; f' = 3x^2 + 2
    f = poly(f13, [5, 2, 0, 1])
    for v in range(13):
        assert f.eval_at(v) == (v**3 + 2 * v + 5) % 13
    assert f.derivative() == poly(f13, [2, 0, 3])


def test_derivative_char_kills_pth_powers(f81):
    # d/dx of x^3 is zero in characteristic 3
    f = poly(f81, [0, 0, 0, 1])
    assert f.derivative().is_zero


def test_gcd(f49):
    rng = random.Random(12)
    for _ in range(50):
        a = rand_poly(f49, rng, 4)
        b = rand_poly(f49, rng, 3)
        g = rand_poly(f49, rng, 2)
        if g.is_zero:
            continue
        d = poly_gcd(a * g, b * g)
        if not (a.is_zero and b.is_zero):
            assert (a * g % d).is_zero or d.degree >= g.degree
            assert ((a * g) % d).is_zero
            assert ((b * g) % d).is_zero
            assert d.lead == 1


def test_pow_mod(f13):
    f = poly(f13, [1, 1, 1])
    rng = random.Random(13)
    for _ in range(20):
        e = rng.randrange(50)
        slow = constant(f13, 1)
        for _ in range(e):
            slow = (slow * x_poly(f13)) % f
        assert pow_mod(x_poly(f13), e, f) == slow


def test_frobenius_fixes_prime_subfield(f169):
    # on an irreducible quadratic, X^q acts as the nontrivial conjugation:
    # applying it twice returns X
    mod = poly(f169, [5, 3, 1])
    fr = pow_mod(x_poly(f169), f169.order, mod)
    fr2 = pow_mod(fr, f169.order, mod)
    assert fr2 == x_poly(f169) % mod


def test_is_irreducible_counts(f5):
    # Gauss: (1/d) sum_{e|d} mu(d/e) q^e monic irreducibles of degree d
    f3 = make_field(3, 1)
    for fld, d, count in ((f5, 1, 5), (f5, 2, 10), (f5, 3, 40), (f3, 4, 18)):
        q = fld.order
        monic = [poly(fld, [v // q**i % q for i in range(d)] + [1])
                 for v in range(q**d)]
        assert sum(map(is_irreducible, monic)) == count, (q, d)
    assert not is_irreducible(constant(f5, 3))


def test_splits_completely_distinct(f13):
    # (x-1)(x-2)(x-3) splits with distinct roots
    f = poly(f13, [1, 12, 0, 1])  # placeholder, rebuilt below
    lin = lambda a: poly(f13, [(13 - a) % 13, 1])
    f = lin(1) * lin(2) * lin(3)
    assert splits_completely_distinct(f)
    assert not splits_completely_distinct(f * lin(3))  # repeated root
    # x^2 + 1 is irreducible over F_7 (no roots)
    f7 = make_field(7, 1)
    assert not splits_completely_distinct(poly(f7, [1, 0, 1]))
    # degree-1 always splits
    assert splits_completely_distinct(lin(5))
    # constants never do
    assert not splits_completely_distinct(constant(f13, 4))


def test_all_roots_order_and_content(f49):
    # roots of x^4 - 1 are the fourth roots of unity, in canonical order
    f = poly(f49, [f49.neg(1), 0, 0, 0, 1])
    roots = all_roots(f)
    assert len(roots) == 4
    assert all(f49.pow(r, 4) == 1 for r in roots)
    keys = [f49.order_key(r) for r in roots]
    assert keys == sorted(keys)
    assert splits_completely_distinct(f)
