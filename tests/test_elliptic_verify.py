"""Tests for fiber group law, sum invariants, and the discriminant profile."""

import random
from dataclasses import replace

import numpy as np
import pytest

from fibered_lrc import cli, elliptic_verify
from fibered_lrc.cli import main
from fibered_lrc.construction import build_evaluation_set, surface_params
from fibered_lrc.elliptic_verify import (
    SINGULAR,
    SUM_O,
    NonSquareTwist,
    PointNotOnCurve,
    SingularFiber,
    _add_points,
    _discriminant,
    discriminant_profile,
    fiber_sums,
    horizontal_sum_two_torsion,
    verify_vertical_sum,
)
from fibered_lrc.lrc_code import BadLocality
from fibered_lrc.poly import constant, factor_monic, poly, x_poly
from kernel_oracle import (O, WeierstrassCurve, ec_add, ec_is_two_torsion,
                           elements, horizontal_quartic, scalar_fiber_sums,
                           vertical_fiber)


def general_discriminant(a1, a2, a3, a4, a6, const):
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, by the
    b2..b8 quantities; const(n) is the integer n in the coefficients' ring."""
    b2 = a1 * a1 + const(4) * a2
    b4 = const(2) * a4 + a1 * a3
    b6 = a3 * a3 + const(4) * a6
    b8 = (a1 * a1 * a6 + const(4) * a2 * a6 - a1 * a3 * a4
          + a2 * a3 * a3 - a4 * a4)
    return (-(b2 * b2 * b8) - const(8) * b4 * b4 * b4 - const(27) * b6 * b6
            + const(9) * b2 * b4 * b6)


def _fiber_points(curve, limit=None):
    fld = curve.field
    pts = [O]
    for x in elements(fld):
        rhs = fld.add(fld.mul(x, fld.mul(x, x)),
                      fld.add(fld.mul(curve.a2, fld.mul(x, x)),
                              fld.mul(curve.a4, x)))
        if fld.is_square(rhs):
            y = fld.sqrt(rhs)
            pts.append((x, y))
            if y:
                pts.append((x, fld.neg(y)))
        if limit and len(pts) >= limit:
            break
    return pts


def test_vertical_fiber_factors(f49):
    rng = random.Random(5)
    x = poly(f49, [0, 1])
    one = poly(f49, [1])
    for _ in range(50):
        tbar = rng.randrange(1, 49)
        u = f49.pow(tbar, 4)
        if u == 1:
            continue
        curve = vertical_fiber(f49, tbar)
        rhs = poly(f49, [0, curve.a4, curve.a2, 1])
        assert rhs == x * (x - one) * (x - poly(f49, [u]))
        assert _discriminant(constant(f49, curve.a2),
                             constant(f49, curve.a4)).coeff(0) != 0
        # full rational 2-torsion at the cubic's roots
        for root in (0, 1, u):
            assert curve.contains((root, 0))
            assert ec_is_two_torsion(curve, (root, 0))


def test_singular_fiber_rejected(f49, f81):
    with pytest.raises(SingularFiber):
        vertical_fiber(f49, 0)
    with pytest.raises(SingularFiber):
        vertical_fiber(f49, 1)  # tbar^4 = 1
    # the nice orbit of this field sits entirely over tbar^4 = 1
    es = build_evaluation_set(surface_params(f81, 3))
    assert (fiber_sums(es)[0, 0] == SINGULAR).all()
    for j in range(4):
        with pytest.raises(SingularFiber):
            verify_vertical_sum(es, 0, j)


def _batch_add(curve, p, q):
    """ec_add's signature on the batched law, one point pair at a time."""
    po = p is O
    x, y, o = _add_points(curve.field, np.array(curve.a2), np.array(curve.a4),
                          (np.array(0 if po else p[0]),
                           np.array(0 if po else p[1]), np.array(po)),
                          (np.array(q[0]), np.array(q[1])))
    return O if o else (int(x), int(y))


def test_two_torsion_subgroup(f49):
    curve = vertical_fiber(f49, 3)
    u = f49.pow(3, 4)
    t2 = [(0, 0), (1, 0), (u, 0)]
    for add in (ec_add, _batch_add):
        for a in range(3):  # sum of two distinct halves is the third
            b, c = (a + 1) % 3, (a + 2) % 3
            assert add(curve, t2[a], t2[b]) == t2[c]
            assert add(curve, t2[a], t2[a]) == O
            assert add(curve, O, t2[a]) == t2[a]


def test_discriminant_matches_general_form(f49, f169):
    rng = random.Random(23)
    for fld in (f49, f169):
        const = lambda n: constant(fld, n % fld.p)  # noqa: E731
        zero = constant(fld, 0)
        pairs = [(rng.randrange(fld.order), rng.randrange(fld.order))
                 for _ in range(150)]
        # a4 = 0, and a2^2 = 4 a4: the two ways to be singular
        pairs += [(a2, 0) for a2 in range(5)]
        pairs += [(fld.mul(2, a), fld.mul(a, a)) for a in range(1, 6)]
        singular = 0
        for a2, a4 in pairs:
            delta = general_discriminant(
                zero, constant(fld, a2), zero, constant(fld, a4), zero,
                const).coeff(0)
            if delta == 0:
                singular += 1
                with pytest.raises(SingularFiber):
                    WeierstrassCurve(fld, a2, a4)
            else:
                WeierstrassCurve(fld, a2, a4)
                assert _discriminant(constant(fld, a2),
                                     constant(fld, a4)).coeff(0) == delta
        assert singular >= 10


def test_smoothness_matches_discriminant_everywhere(f49, f81):
    # the scalar test a4 != 0, a2^2 != 4 a4 against 16 a4^2 (a2^2 - 4 a4),
    # on every (a2, a4) of an odd and a characteristic-3 field
    for fld in (f49, f81):
        singular = 0
        for a2 in range(fld.order):
            for a4 in range(fld.order):
                delta = _discriminant(constant(fld, a2),
                                      constant(fld, a4)).coeff(0)
                if delta == 0:
                    singular += 1
                    with pytest.raises(SingularFiber):
                        WeierstrassCurve(fld, a2, a4)
                else:
                    WeierstrassCurve(fld, a2, a4)  # smooth: no SingularFiber
        # a4 = 0 on q pairs, and a2^2 = 4 a4 != 0 on q - 1 more
        assert singular == 2 * fld.order - 1


def test_group_law_axioms(f49):
    # a vertical fiber, and the horizontal model Y^2 = X^3 - 4AB X
    es = build_evaluation_set(surface_params(f49, 3))
    A, B = horizontal_quartic(es, 0, 1)
    horizontal = WeierstrassCurve(f49, 0, f49.neg(f49.mul(4, f49.mul(A, B))))
    for curve in (vertical_fiber(f49, 5), horizontal):
        pts = _fiber_points(curve)
        rng = random.Random(17)
        for _ in range(40):
            p, q, s = (rng.choice(pts) for _ in range(3))
            assert ec_add(curve, p, O) == p
            neg = p if p is O else (p[0], curve.field.neg(p[1]))
            assert ec_add(curve, p, neg) == O
            assert ec_add(curve, p, q) == ec_add(curve, q, p)
            lhs = ec_add(curve, ec_add(curve, p, q), s)
            rhs = ec_add(curve, p, ec_add(curve, q, s))
            assert lhs == rhs


@pytest.mark.parametrize("p, m", [(7, 2), (3, 4)])
def test_batched_law_matches_scalar_law(field_cache, p, m):
    # every sum p + q, p a point or O and q a point, of a vertical cubic
    # and a horizontal model: chords, tangents, q = -p and 2-torsion
    # doubled, in an odd characteristic and in characteristic 3
    fld = field_cache(p, m)
    es = build_evaluation_set(surface_params(fld, 3))
    A, B = horizontal_quartic(es, 0, 0)
    tbar = next(t for t in range(2, fld.order) if fld.pow(t, 4) != 1)
    for curve in (vertical_fiber(fld, tbar),
                  WeierstrassCurve(fld, 0, fld.neg(fld.mul(4 % p, fld.mul(A, B))))):
        pts = _fiber_points(curve)
        pairs = [(a, b) for a in pts for b in pts[1:]]
        px, py = (np.array([0 if a is O else a[k] for a, _ in pairs])
                  for k in (0, 1))
        qx, qy = np.array([b for _, b in pairs]).T
        x, y, o = _add_points(fld, np.full(len(pairs), curve.a2),
                              np.full(len(pairs), curve.a4),
                              (px, py, np.array([a is O for a, _ in pairs])),
                              (qx, qy))
        got = [O if oo else (xx, yy)
               for xx, yy, oo in zip(x.tolist(), y.tolist(), o.tolist())]
        assert got == [ec_add(curve, a, b) for a, b in pairs]
        assert O in got and sum(b[1] == 0 for _, b in pairs) >= 3


def test_point_not_on_curve(f49):
    curve = vertical_fiber(f49, 5)
    good = _fiber_points(curve, limit=4)[1]
    bogus = (good[0], f49.add(good[1], 1))
    assert not curve.contains(bogus)
    with pytest.raises(PointNotOnCurve,
                       match=rf"^\({good[0]}, {bogus[1]}\) not on the curve$"):
        ec_add(curve, good, bogus)
    with pytest.raises(PointNotOnCurve):
        ec_add(curve, bogus, good)
    with pytest.raises(PointNotOnCurve):
        ec_add(curve, bogus, O)
    with pytest.raises(PointNotOnCurve):
        ec_is_two_torsion(curve, bogus)


# (p, m): fibers with tbar^4 = 1 are singular and skipped
VERTICAL_CASES = [(7, 2, 0), (13, 2, 0), (11, 2, 4), (5, 4, 4), (3, 4, 4)]


def test_vertical_sums(field_cache):
    for p, m, expect_skips in VERTICAL_CASES:
        es = build_evaluation_set(surface_params(field_cache(p, m), 3))
        skips = 0
        for l in range(len(es.orbit_indices)):
            for j in range(4):
                try:
                    assert verify_vertical_sum(es, l, j)
                except SingularFiber:
                    skips += 1
        assert skips == expect_skips


def _with_y(es, pos, y):
    """A copy of es whose point at position pos has y-coordinate y."""
    xyt = es.xyt.copy()
    xyt[1, pos] = y
    return replace(es, xyt=xyt)


def test_vertical_sum_negated_point_breaks(f49):
    es = build_evaluation_set(surface_params(f49, 3))
    for l in range(2):
        for j in range(4):
            pos = es.point_index(l, 0, j)
            y0 = es.xyt.item(1, pos)
            negated = fiber_sums(_with_y(es, pos, f49.neg(y0)))
            # sum with one point negated is 2P0, nonzero since y0 != 0
            assert y0 != 0 and negated[l, 0, j] != SUM_O
            assert negated.tolist() == scalar_fiber_sums(
                _with_y(es, pos, f49.neg(y0)))
            assert verify_vertical_sum(es, l, j)


def test_off_curve_point_raises(f49, f81, monkeypatch, capsys):
    es = build_evaluation_set(surface_params(f49, 3))
    bad = _with_y(es, es.point_index(1, 2, 3),
                  f49.add(es.xyt.item(1, es.point_index(1, 2, 3)), 1))
    with pytest.raises(PointNotOnCurve, match="not on the curve$") as batch:
        fiber_sums(bad)
    with pytest.raises(PointNotOnCurve) as scalar:
        scalar_fiber_sums(bad)
    assert str(batch.value) == str(scalar.value)
    with pytest.raises(PointNotOnCurve):
        horizontal_sum_two_torsion(bad, 0, 0)
    monkeypatch.setattr(cli, "build_evaluation_set", lambda *args: bad)
    assert main(["verify", "elliptic", "--field", "7^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invariant violation: {batch.value}\n"
    # every vertical fiber of F_81 is refused, so the quartic check of the
    # horizontal fiber is the one that sees a changed point
    es = build_evaluation_set(surface_params(f81, 3))
    bad = _with_y(es, 6, f81.add(es.xyt.item(1, 6), 1))
    with pytest.raises(PointNotOnCurve,
                       match=r"^\(t, y\) = .* is off the quartic model$"):
        fiber_sums(bad)


def test_partial_sums_are_checked(f49, monkeypatch):
    # a group law that goes wrong after two points is caught by the check of
    # the running sum, not passed on as a verdict
    def off_by_one(fld, a2, a4, p, q):
        x, y, o = _add_points(fld, a2, a4, p, q)
        return x, fld.vsum(y, 1), o

    monkeypatch.setattr(elliptic_verify, "_add_points", off_by_one)
    es = build_evaluation_set(surface_params(f49, 3))
    with pytest.raises(PointNotOnCurve, match="not on the curve$"):
        fiber_sums(es)


@pytest.mark.parametrize("p, m", [(3, 4), (7, 2), (11, 2), (13, 2), (5, 4),
                                  (17, 2), (19, 2), (23, 2), (29, 2), (7, 4)])
def test_fiber_sums_match_scalar_law(field_cache, p, m):
    # verdict for verdict, SINGULAR and NONSQUARE fibers included
    es = build_evaluation_set(surface_params(field_cache(p, m), 3))
    sums = fiber_sums(es)
    assert sums.shape == (es.b, 2, 4)
    assert sums.tolist() == scalar_fiber_sums(es)


def test_fiber_sums_refuse_other_localities(f49):
    with pytest.raises(BadLocality):
        fiber_sums(build_evaluation_set(surface_params(f49, 5)))


# (p, m): count of horizontal fibers whose twist is a nonsquare
TWIST_CASES = [(7, 2, 0), (3, 4, 0), (5, 4, 0), (11, 2, 8), (13, 2, 10)]


def test_horizontal_sums(field_cache):
    for p, m, expect_twists in TWIST_CASES:
        es = build_evaluation_set(surface_params(field_cache(p, m), 3))
        twists = 0
        for l in range(len(es.orbit_indices)):
            for i in range(4):
                try:
                    assert horizontal_sum_two_torsion(es, l, i)
                except NonSquareTwist:
                    twists += 1
        assert twists == expect_twists


def test_discriminant_profile(f49, f169):
    for fld in (f49, f169):
        prof = discriminant_profile(surface_params(fld, 3))
        assert sorted((o for _, o in prof), reverse=True) == [8, 8, 2, 2, 2, 2]
        by_label = dict(prof)
        assert by_label["t=infinity"] == 8 and by_label["t=0"] == 8
        fourth_roots = {v for v in elements(fld) if fld.pow(v, 4) == 1}
        assert {lbl for lbl, o in prof if o == 2} == {
            f"t={v}" for v in fourth_roots}
    with pytest.raises(BadLocality):
        discriminant_profile(surface_params(f49, 5))


@pytest.mark.parametrize("p, m", [(7, 2), (3, 4), (11, 2), (13, 2), (5, 4),
                                  (3, 6), (17, 1), (29, 1)])
def test_discriminant_splits_into_lines(field_cache, p, m):
    # r = 3 needs 4 | q - 1, so t^4 - 1 splits: every factor of
    # 16 t^8 (t^4 - 1)^2 is a line, and each profile entry is labelled t=root
    fld = field_cache(p, m)
    one, t = constant(fld, 1), x_poly(fld)
    t4 = t * t * t * t
    delta = _discriminant(-(t4 + one), t4)
    assert delta == (t4 * t4 * (t4 - one) * (t4 - one)).scale(16 % p)
    assert all(g.degree == 1 for g, _ in factor_monic(delta))
    prof = discriminant_profile(surface_params(fld, 3))
    assert sorted((o for _, o in prof), reverse=True) == [8, 8, 2, 2, 2, 2]
    assert {lbl for lbl, _ in prof} == {"t=infinity"} | {
        f"t={fld.neg(g.coeffs[0])}" for g, _ in factor_monic(delta)}


def test_nonlinear_discriminant_factor_raises(f49, monkeypatch, capsys):
    # broken arithmetic that leaves a quadratic factor fails loudly
    def with_quadratic(f):
        return factor_monic(f)[:-2] + ((poly(f.field, [3, 0, 1]), 2),)

    monkeypatch.setattr(elliptic_verify, "factor_monic", with_quadratic)
    with pytest.raises(ArithmeticError, match="not linear"):
        discriminant_profile(surface_params(f49, 3))
    assert main(["verify", "elliptic", "--field", "7^2"]) == 2
    assert "is not linear" in capsys.readouterr().err
