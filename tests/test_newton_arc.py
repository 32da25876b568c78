"""Tests for support sets, lower hulls, segment polynomials, splitting."""

from fractions import Fraction

import pytest

from fibered_lrc import make_field
from fibered_lrc.construction import surface_params
from fibered_lrc.lrc_code import BadLocality, basis, distance_lower_bound
from fibered_lrc.newton_arc import (
    AllZero,
    SupportSet,
    defining_coefficients,
    lower_hull,
    monomial_valuations,
    pole_degree,
    segment_polynomials,
    splitting_at_infinity,
    support_set_at_infinity,
)
from fibered_lrc.poly import poly

# (p, m, r, expected splitting case)
ARC_CASES = [(7, 2, 3, 1), (3, 4, 3, 1), (13, 2, 3, 1), (5, 4, 3, 1),
             (13, 1, 5, 1), (7, 1, 5, 2), (17, 1, 7, 1), (11, 1, 9, 2)]


def _arc(p, m, r):
    fld = make_field(p, m)
    ss = support_set_at_infinity(defining_coefficients(fld, r), r + 1)
    return fld, ss, lower_hull(ss)


def test_support_set_shape():
    for p, m, r, _ in ARC_CASES:
        _, ss, _ = _arc(p, m, r)
        expected = {(0, r + 1), (1, 0), (2, 0), (3, r + 1), (r + 1, r + 1)}
        if r >= 5:
            expected.add(((r + 1) // 2, r + 1))
        assert set(ss.points) == expected
        assert [i for i, _ in ss.points] == sorted(i for i, _ in ss.points)


def test_support_set_trivia(f13):
    ss = support_set_at_infinity([poly(f13, [1])], 0)
    assert ss.points == ((0, 0),)
    with pytest.raises(AllZero):
        support_set_at_infinity([poly(f13, []), poly(f13, [])], 4)
    with pytest.raises(BadLocality):
        defining_coefficients(f13, 4)


def test_lower_hull_small(f13):
    flat = SupportSet(((0, 0), (1, 0)), {0: 1, 1: 1}, f13)
    [seg] = lower_hull(flat)
    assert seg.slope == 0 and seg.points == ((0, 0), (1, 0))
    vee = SupportSet(((0, 2), (1, 0), (2, 2)), {0: 1, 1: 1, 2: 1}, f13)
    segs = lower_hull(vee)
    assert [s.slope for s in segs] == [Fraction(-2), Fraction(2)]
    collinear = SupportSet(((0, 0), (1, 1), (2, 2)), {0: 1, 1: 1, 2: 1}, f13)
    [seg] = lower_hull(collinear)
    assert seg.points == ((0, 0), (1, 1), (2, 2))
    assert lower_hull(SupportSet(((0, 0),), {0: 1}, f13)) == []


def test_arc_three_segments_and_hull_validity():
    for p, m, r, _ in ARC_CASES:
        _, ss, segs = _arc(p, m, r)
        assert [s.slope for s in segs] == [
            Fraction(-(r + 1)), Fraction(0), Fraction(r + 1, r - 1)]
        # slope written -a/b in lowest terms, b > 0
        assert segs[0].a == r + 1 and segs[0].b == 1
        assert segs[2].b == (r - 1) // 2 or r == 3 and segs[2].b == 1
        for seg in segs:
            i0, v0 = seg.start
            for i, v in ss.points:  # all support on or above each segment line
                assert Fraction(v - v0) >= seg.slope * (i - i0)


def test_segment_polynomials():
    for p, m, r, case in ARC_CASES:
        fld, ss, segs = _arc(p, m, r)
        datas = [segment_polynomials(s, ss) for s in segs]
        minus1 = fld.neg(1)
        assert datas[0].delta.coeffs == (minus1, 1)
        assert datas[1].delta.coeffs == (minus1, 1)
        assert datas[2].delta.coeffs == (1, 0, 1)
        for seg, data in zip(segs, datas):
            width = seg.end[0] - seg.start[0]
            assert data.gamma.lead == 1 and data.gamma.degree == width
            # gamma(T) == delta(T^b) coefficientwise
            spread = [0] * (data.delta.degree * seg.b + 1)
            for k, c in enumerate(data.delta.coeffs):
                spread[k * seg.b] = c
            assert data.gamma == poly(fld, spread)
            assert all(m == 1 for _, m in data.factors)
        # the last segment's polynomial has only its endpoints as support
        assert len(segs[2].points) == 2
        assert sum(1 for c in datas[2].gamma.coeffs if c) == 2


def test_splitting_tables():
    for p, m, r, case in ARC_CASES:
        vt = splitting_at_infinity(surface_params(make_field(p, m), r))
        assert vt.case == case
        assert sum(pl.e * pl.f for pl in vt.places) == r + 1
        assert all(pl.v_t == -pl.e for pl in vt.places)
        evs = sorted(pl.e for pl in vt.places)
        fvs = sorted(pl.f for pl in vt.places)
        half = (r - 1) // 2
        if case == 1:
            assert len(vt.places) == 4
            assert evs == sorted([1, 1, half, half]) and fvs == [1, 1, 1, 1]
        else:
            assert len(vt.places) == 3
            assert evs == sorted([1, 1, half]) and fvs == [1, 1, 2]
        assert [pl.v_x for pl in vt.places[:2]] == [r + 1, 0]
        assert all(pl.v_x == -(r + 1) // 2 for pl in vt.places[2:])
        # rational unramified count reads the same off the factorizations
        direct = sum(1 for pl in vt.places if pl.e == 1 and pl.f == 1)
        assert direct == (4 if (case == 1 and r == 3) else 2)


def test_monomial_valuations():
    for p, m, r, _ in ARC_CASES:
        vt = splitting_at_infinity(surface_params(make_field(p, m), r))
        assert monomial_valuations(vt, 1, 0)["P1"] == r + 1
        assert monomial_valuations(vt, 2, 1)["P1"] == 2 * (r + 1) - 1
        p1 = [monomial_valuations(vt, i, j)["P1"] for i, j in basis(r)]
        assert min(p1) == 2
        assert monomial_valuations(vt, 1, r - 1)["P1"] == 2
        for i, j in basis(r):  # no zeros away from P1
            vals = monomial_valuations(vt, i, j)
            assert vals["P2"] == -j <= 0
            assert all(vals[pl.name] < 0 for pl in vt.places[2:])
        with pytest.raises(ValueError):
            monomial_valuations(vt, r - 1, r - 1)


def test_pole_degrees_and_bound_consistency():
    for r in (3, 5, 7, 9):
        degrees = {(i, j): pole_degree(i, j, r) for i, j in basis(r)}
        assert max(degrees.values()) == 2 * r * r - 2 * r - 1
        assert degrees[(r - 1, r - 2)] == 2 * r * r - 2 * r - 1
        assert degrees[(1, 0)] == r + 1
        for b in (1, 2, 3):
            n = b * (r + 1) ** 2
            assert distance_lower_bound(n, r) == n - (max(degrees.values()) - 2)
    with pytest.raises(ValueError):
        pole_degree(0, 0, 3)
