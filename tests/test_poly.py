import functools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibered_lrc
from fibered_lrc.gf import DivisionByZero, FieldMismatch, make_field
from fibered_lrc.poly import (
    UniPoly,
    all_roots,
    constant,
    factor_monic,
    is_irreducible,
    poly,
    poly_gcd,
    pow_mod,
    splits_completely_distinct,
    x_poly,
)
from kernel_oracle import elements, order_key


def rand_poly(field, rng, max_deg):
    return poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


def test_normalization(f49):
    f = poly(f49, [1, 2, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    z = poly(f49, [0, 0])
    assert z.is_zero and z.degree == -1
    with pytest.raises(ValueError, match="trailing zeros"):
        UniPoly(f49, (1, 0))
    with pytest.raises(ValueError, match="out of range"):
        poly(f49, [49])
    with pytest.raises(ValueError, match="no leading coefficient"):
        UniPoly(f49, ()).lead
    with pytest.raises(ValueError, match="zero polynomial"):
        UniPoly(f49, ()).monic()


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


# each snippet spun forever before the loops of poly were bounded; in a
# subprocess with a timeout, a regression fails instead of hanging
@pytest.mark.parametrize("snippet", [
    # scalar neg one step off: division never clears a leading term
    "gf.FieldSpec.neg = lambda self, a: "
    "self._exp[self._log[a] + (self.order - 1) // 2 + 1]\n"
    "gf.make_field(3, 4)",
    # X^2 - 2 has no root in F_13; a scan that names one anyway must not
    # be taken on trust
    "f = gf.make_field(13, 1)\n"
    "poly.all_roots = lambda g: (5,)\n"
    "poly.factor_monic(poly.poly(f, [11, 0, 1]))",
], ids=["neg-off-by-one", "root-divides-nothing"])
def test_broken_arithmetic_fails_fast(snippet):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fibered_lrc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from fibered_lrc import gf, poly\n" + snippet],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ArithmeticError"), \
        proc.stderr


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
    with pytest.raises(ValueError, match="negative exponent"):
        pow_mod(x_poly(f13), -1, f)


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
    # degree 6 over F_3 includes products of two cubics, where the first
    # gcd above 1 in Ben-Or's loop is f itself
    for fld, d, count in ((f5, 1, 5), (f5, 2, 10), (f5, 3, 40), (f5, 4, 150),
                          (f3, 4, 18), (f3, 6, 116)):
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
    keys = [order_key(f49, r) for r in roots]
    assert keys == sorted(keys)
    assert splits_completely_distinct(f)


def test_all_roots_scans_the_powers_in_blocks():
    # F_262103 has four blocks of 2^16 powers: roots from every block come
    # back in canonical order, and the scan holds one block's temporaries
    # (a single pass over this six-term f peaked at 18 MB)
    fld = make_field(262103, 1)
    exp = fld.np_tables()["EXP"]
    roots = [int(exp[e]) for e in (3, 70000, 140000, 262101)]
    f = x_poly(fld)
    for a in roots + roots[:1]:
        f = f * poly(fld, [fld.neg(a), 1])
    tracemalloc.start()
    try:
        assert all_roots(f) == (0, *roots)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()


_field = functools.cache(make_field)
FACTOR_FIELDS = [(7, 1), (7, 2), (3, 4), (5, 4)]


@st.composite
def sparse_or_dense_polys(draw):
    """Nonzero f over a small field: up to 12 coefficients, each zero with
    probability 0 (dense) to 0.9 (sparse); two times in three the constant
    term is then set to 0 or to a nonzero value."""
    fld = _field(*draw(st.sampled_from(FACTOR_FIELDS)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    coeff = st.integers(1, fld.order - 1)
    coeffs = [draw(coeff) if draw(st.floats(0, 1)) < density else 0
              for _ in range(draw(st.integers(1, 12)))]
    const = draw(st.sampled_from(["as drawn", "zero", "nonzero"]))
    if const != "as drawn":
        coeffs[0] = draw(coeff) if const == "nonzero" else 0
    coeffs.append(draw(coeff))
    return poly(fld, coeffs)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sparse_or_dense_polys())
def test_all_roots_matches_scalar_scan(f):
    fld = f.field
    powers = list(elements(fld))[1:]
    assert f.eval_nonzero(powers).tolist() == [f.eval_at(x) for x in powers]
    assert all_roots(f) == tuple(x for x in elements(fld) if f.eval_at(x) == 0)


def _power(g, e):
    out = constant(g.field, 1)
    for _ in range(e):
        out = out * g
    return out


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1)])
def test_factor_monic_multiplicity_divisible_by_p(p, m):
    # a line whose multiplicity p divides is divided out as often as it
    # divides, like any other
    fld = make_field(p, m)
    x = x_poly(fld)

    def lin(a):
        return x - constant(fld, a)

    build, expected = {
        # (X - 1)^3 (X + 1) over F_3
        (3, 1): (lambda: _power(lin(1), 3) * lin(2), [((1, 1), 1), ((2, 1), 3)]),
        # X^3 - 5 over F_9 is (X - 5^3)^3, as 5^9 = 5
        (3, 2): (lambda: _power(x, 3) - constant(fld, 5), [((4, 1), 3)]),
        # (X - 2)^5 (X^2 + 2) over F_5
        (5, 1): (lambda: _power(lin(2), 5) * poly(fld, [2, 0, 1]),
                 [((3, 1), 5), ((2, 0, 1), 1)]),
    }[p, m]
    f = build()
    out = factor_monic(f)
    assert [(g.coeffs, e) for g, e in out] == expected
    product = constant(fld, 1)
    for g, e in out:
        product = product * _power(g, e)
    assert product == f


def first_irreducible(fld, degree, start):
    """The first monic irreducible of the degree whose lower coefficients,
    read as base-q digits, come at or after start (wrapping around)."""
    q, size = fld.order, fld.order ** degree
    return next(h for h in (poly(fld, [i % size // q**k % q
                                       for k in range(degree)] + [1])
                            for i in range(start, start + size))
                if is_irreducible(h))


@st.composite
def factored_polys(draw):
    """(f, expected factor_monic(f)) for f = c X^v prod (X - r_i)^e_i
    times at most one monic irreducible h of degree 2 or 3: distinct
    nonzero r_i, v in 0..9 and multiplicities in 1..p+1, so p | e too."""
    fld = _field(*draw(st.sampled_from(FACTOR_FIELDS)))
    q, mult = fld.order, st.integers(1, fld.p + 1)
    factors = {}
    v = draw(st.integers(0, 9))
    if v:
        factors[x_poly(fld).coeffs] = v
    for r in draw(st.lists(st.integers(1, q - 1), max_size=3, unique=True)):
        factors[(fld.neg(r), 1)] = draw(mult)
    if draw(st.booleans()):
        degree = draw(st.integers(2, 3))
        h = first_irreducible(fld, degree, draw(st.integers(0, q**degree - 1)))
        factors[h.coeffs] = 1
    f = constant(fld, draw(st.integers(1, q - 1)))
    for coeffs, e in factors.items():
        f = f * _power(poly(fld, coeffs), e)
    expected = sorted(factors.items(), key=lambda it: (len(it[0]), it[0]))
    return f, expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(factored_polys())
def test_factor_monic_matches_construction(case):
    f, expected = case
    if f.degree < 1:
        return  # c alone: nothing to factor
    assert [(g.coeffs, e) for g, e in factor_monic(f)] == expected


@pytest.mark.parametrize("coeffs,expected", [
    ([3, 5], [((2, 1), 1)]),                          # 5X + 3 = 5(X + 2)
    ([0] * 9 + [4], [((0, 1), 9)]),                   # 4 X^9
    ([4, 2, 1], [((3, 1), 1), ((6, 1), 1)]),          # (X + 3)(X + 6)
], ids=["degree-1", "X^9", "split-quadratic"])
def test_factor_monic_base_cases(coeffs, expected):
    f = poly(_field(7, 1), coeffs)
    assert [(g.coeffs, e) for g, e in factor_monic(f)] == expected


def test_factor_monic_rejects_constants(f49):
    for coeffs in ([], [3]):
        with pytest.raises(ValueError, match="nothing to factor"):
            factor_monic(poly(f49, coeffs))


def test_quadratic_splits_by_formula(f49):
    # products of two distinct monic lines over F_49 come back as their
    # two lines, each once
    x = x_poly(f49)
    for a in range(0, 49, 5):
        for b in range(a + 1, 49, 7):
            lines = [x - constant(f49, a), x - constant(f49, b)]
            out = factor_monic(lines[0] * lines[1])
            assert [(g.coeffs, e) for g, e in out] == sorted(
                (g.coeffs, 1) for g in lines)


@pytest.mark.parametrize("p,m", [(7, 1), (7, 2), (3, 4)])
def test_factor_monic_rejects_two_rootless_factors(p, m):
    # a rootless leftover must be irreducible: h1 h2 and h^2 are not
    fld = _field(p, m)
    h1 = first_irreducible(fld, 2, 0)
    h2 = first_irreducible(fld, 2, h1.coeffs[0] + fld.order * h1.coeffs[1] + 1)
    assert h1 != h2
    line = x_poly(fld) - constant(fld, 1)
    for f in (h1 * h2, _power(h1, 2), line * h1 * h2):
        with pytest.raises(ArithmeticError, match="not irreducible"):
            factor_monic(f)
