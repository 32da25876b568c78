"""Tests for the fibered-surface parameter/orbit/evaluation-set layer."""

import dataclasses
import random
import sys

import numpy as np
import pytest

from fibered_lrc import construction, make_field
from fibered_lrc.construction import (
    BadLocality,
    EmptySelection,
    InternalNicenessViolation,
    NiceOrbit,
    NoAdmissibleBase,
    NoNiceElements,
    build_evaluation_set,
    find_nice_orbits,
    m_sufficient,
    recovery_indices,
    specialize_P,
    surface_params,
)
from fibered_lrc.poly import all_roots, poly, splits_completely_distinct
from kernel_oracle import elements, order_key, scalar_nice_orbits

# (p, m_total) -> (expected q, expected m, expected orbit count M).
# Orbit counts were cross-checked by brute-force root counting of the
# degree-(r+1) fiber polynomial under an independently chosen modulus,
# so they do not depend on this package's field construction.
FROZEN_ORBITS = {
    (7, 2): (49, 1, 2),
    (3, 4): (9, 2, 1),
    (11, 2): (121, 1, 3),
    (13, 2): (13, 2, 5),
    (5, 4): (5, 4, 8),
}


def is_nice_element(sp, t):
    """Nice: t != 0 and P_t splits into distinct linear factors."""
    return t != 0 and splits_completely_distinct(specialize_P(sp, t))


def oracle_catalog(sp):
    """Nice orbits by splitting test: the least member of each zeta-orbit
    is tested, and a nice orbit's roots come from a scalar ``eval_at``
    scan, so the oracle shares no evaluation code with the catalog."""
    fld = sp.field
    seen, orbits = set(), []
    for t in elements(fld):
        if t == 0 or t in seen:
            continue
        members = [t]
        for _ in range(sp.r):
            members.append(fld.mul(members[-1], sp.zeta))
        seen.update(members)
        if is_nice_element(sp, t):
            P_t = specialize_P(sp, t)
            roots = tuple(x for x in elements(fld) if P_t.eval_at(x) == 0)
            orbits.append(NiceOrbit(t, tuple(members), roots))
    return tuple(orbits)


# fields of order <= 729 with 0 to 8 orbits, and the primes 13..101; each
# is tried with every admissible r in 3, 5, 7, 9
CATALOG_FIELDS = [(7, 2), (3, 4), (11, 2), (13, 2), (5, 4), (3, 6), (3, 2),
                  (5, 2), *((p, 1) for p in (13, 17, 19, 23, 29, 31, 37, 41,
                                             43, 47, 53, 59, 61, 67, 71, 73,
                                             79, 83, 89, 97, 101))]


@pytest.mark.parametrize("p,m", [
    *CATALOG_FIELDS,
    pytest.param(7, 4, marks=pytest.mark.nightly),
], ids=lambda v: str(v))
def test_catalog_matches_splitting_oracle(p, m):
    fld = make_field(p, m)
    for r in (3, 5, 7, 9):
        try:
            sp = surface_params(fld, r)
        except NoAdmissibleBase:
            continue
        expect = oracle_catalog(sp)
        if not expect:
            with pytest.raises(NoNiceElements):
                find_nice_orbits(sp)
        else:
            assert find_nice_orbits(sp) == expect, (p, m, r)


@pytest.fixture(scope="module")
def sp169(f169):
    return surface_params(f169, 3)


def test_base_split_and_zeta(f49, f81, f121, f169, f625):
    for fld in (f49, f81, f121, f169, f625):
        q, m, _ = FROZEN_ORBITS[(fld.p, fld.m)]
        sp = surface_params(fld, 3)
        assert (sp.q, sp.m) == (q, m)
        assert q % 4 == 1
        assert q**m == fld.order
        # zeta has exact order r+1
        z = sp.zeta
        assert fld.pow(z, 4) == 1
        assert fld.pow(z, 2) != 1


def test_surface_params_rejects_bad_r(f49):
    for r in (2, 4, 1, -3):
        with pytest.raises(BadLocality):
            surface_params(f49, r)


def test_no_admissible_base():
    # 7 == 3 mod 4, and there is no intermediate subfield of F_7
    with pytest.raises(NoAdmissibleBase):
        surface_params(make_field(7, 1), 3)


def test_specialize_P_shape_r3(sp169, f169):
    rng = random.Random(20260815)
    for _ in range(100):
        t = rng.randrange(1, f169.order)
        P = specialize_P(sp169, t)
        assert P.degree == 4
        assert P.coeffs[4] == 1
        # x^4 - x^3 + (t^4+3)x^2 - t^4 x + 1, all exponent merges applied
        t4 = f169.pow(t, 4)
        expect = poly(
            f169,
            [1, f169.neg(t4), f169.add(t4, 3), f169.neg(1), 1],
        )
        assert P == expect
        assert P.eval_at(0) == 1
        assert P.eval_at(1) == 4  # t-terms cancel at 1


def test_specialize_P_shape_r5():
    # r=5 needs q == 1 mod 6; F_7 works and exercises the general merge path
    fld = make_field(7, 1)
    sp = surface_params(fld, 5)
    rng = random.Random(7)
    for _ in range(20):
        t = rng.randrange(1, 7)
        P = specialize_P(sp, t)
        t6 = fld.pow(t, 6)
        # T^6 + (2-1)T^3 + (t^6+1)T^2 - t^6 T + 1
        expect = poly(
            fld,
            [1, fld.neg(t6), fld.add(t6, 1), 1, 0, 0, 1],
        )
        assert P == expect
        assert P.eval_at(1) == 4


def test_nice_zero_excluded(sp169):
    assert not is_nice_element(sp169, 0)


def test_nice_census_f49(f49):
    sp = surface_params(f49, 3)
    nice = [t for t in range(1, 49) if is_nice_element(sp, t)]
    assert len(nice) == 8
    # closure under multiplication by zeta
    for t in nice:
        assert is_nice_element(sp, f49.mul(sp.zeta, t))


def test_orbit_counts_frozen():
    for (p, mt), (_, _, M) in FROZEN_ORBITS.items():
        fld = make_field(p, mt)
        sp = surface_params(fld, 3)
        orbits = find_nice_orbits(sp)
        assert len(orbits) == M, (p, mt)
        # |G_m| = (r+1) * M, each orbit a full zeta-orbit
        seen = set()
        for ob in orbits:
            assert len(ob.members) == 4
            assert ob.members[0] == ob.representative
            assert ob.representative == min(
                ob.members, key=lambda a: order_key(fld, a))
            for j, t in enumerate(ob.members):
                assert t == fld.mul(fld.pow(sp.zeta, j), ob.representative)
            seen.update(ob.members)
        assert len(seen) == 4 * M
        # sorted by canonical order of least member
        keys = [order_key(fld, ob.representative) for ob in orbits]
        assert keys == sorted(keys)


def test_orbit_root_sets_invariant(sp169, f169):
    for ob in find_nice_orbits(sp169):
        base = set(all_roots(specialize_P(sp169, ob.members[0])))
        for t in ob.members[1:]:
            assert set(all_roots(specialize_P(sp169, t))) == base
        assert len(base) == 4


def test_one_pass_catalog(sp169, monkeypatch):
    # neither the catalog nor the evaluation set runs a splitting test or
    # root scan, and the array pass agrees with the scalar walk
    def forbidden(*args):
        raise AssertionError("splitting test or root scan called")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("fibered_lrc"):
            for name in ("splits_completely_distinct", "all_roots"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, forbidden)
    construction.find_nice_orbits.cache_clear()
    es = build_evaluation_set(sp169)
    assert es.orbits == scalar_nice_orbits(sp169)
    assert es.b == 5


@pytest.mark.parametrize("p, m, r", [
    (7, 2, 3), (3, 4, 3), (11, 2, 3), (13, 2, 3), (5, 4, 3), (3, 6, 3),
    (7, 4, 3), (3, 8, 3), (29, 2, 3), (7, 2, 5),
    (13, 1, 3), (13, 1, 5), (17, 1, 7), (11, 1, 9),      # no nice elements
    pytest.param(1021, 2, 3, marks=pytest.mark.nightly),
    pytest.param(1048573, 1, 3, marks=pytest.mark.nightly),
])
def test_catalog_matches_scalar_walk(p, m, r):
    sp = surface_params(make_field(p, m), r)
    try:
        expect = scalar_nice_orbits(sp)
    except NoNiceElements:
        with pytest.raises(NoNiceElements):
            find_nice_orbits(sp)
    else:
        assert find_nice_orbits(sp) == expect


def test_sufficient_order_gives_orbits():
    # whenever q^m / m >= 2*(r+1)! = 48 the scan must find something
    for p, mt in [(7, 2), (11, 2), (13, 2), (5, 4)]:
        sp = surface_params(make_field(p, mt), 3)
        assert sp.q**sp.m / sp.m >= 48
        assert len(find_nice_orbits(sp)) >= 1


def test_no_nice_elements_f5():
    # F_5 admits zeta (5 == 1 mod 4) but the fiber polynomial never splits
    with pytest.raises(NoNiceElements):
        find_nice_orbits(surface_params(make_field(5, 1), 3))


def test_evaluation_set_invariants(sp169, f169):
    es = build_evaluation_set(sp169)  # all five orbits
    assert es.n == 5 * 16
    assert es.b == 5
    fld = f169
    seen = set()
    assert es.xyt.shape == (3, es.n)
    for x, y, t in zip(*es.xyt.tolist()):
        # both surface equations, affine chart
        assert y == fld.add(fld.mul(x, x), 1)
        rhs = fld.add(
            fld.sub(
                fld.pow(x, 3),
                fld.mul(fld.mul(x, x), fld.add(fld.pow(t, 4), 1)),
            ),
            fld.mul(x, fld.pow(t, 4)),
        )
        assert fld.mul(y, y) == rhs
        assert x not in (0, 1)
        assert t != 0
        # horizontal fiber is full: u * x(x-1) != 0 with u = t^4
        kum = fld.mul(fld.pow(t, 4), fld.mul(x, fld.sub(x, 1)))
        assert kum != 0
        seen.add((x, t))
    assert len(seen) == es.n  # pairwise distinct as plane points


def test_vertical_fibers_structure(sp169):
    es = build_evaluation_set(sp169, [0, 1])
    fibers = [(l, j, t, ob.roots) for l, ob in enumerate(es.orbits)
              for j, t in enumerate(ob.members)]
    assert len(fibers) == 2 * 4
    for l, j, t, roots in fibers:
        assert len(set(roots)) == 4
        assert es.t_value(l, j) == t


def test_point_index_round_trip(sp169):
    es = build_evaluation_set(sp169, [2, 0])
    for pos in range(es.n):
        assert es.point_index(*es.triple(pos)) == pos
    for pos in (-1, es.n):
        with pytest.raises(IndexError):
            es.triple(pos)
    with pytest.raises(IndexError):
        es.point_index(2, 0, 0)
    with pytest.raises(IndexError):
        es.point_index(0, 4, 0)


@pytest.mark.parametrize("p, m, r, orbits", [
    (13, 2, 3, None), (5, 4, 3, (6, 0, 3)), (7, 2, 5, None), (7, 4, 7, None)])
def test_xyt_holds_the_points(p, m, r, orbits):
    # P_{l,i,j} = (x_i, x_i^{(r+1)/2} + 1, zeta^j t_l) at position (l, i, j)
    es = build_evaluation_set(surface_params(make_field(p, m), r), orbits)
    fld = es.field
    assert es.xyt.shape == (3, es.n) and es.xyt.dtype == np.int64
    for pos, point in enumerate(zip(*es.xyt.tolist())):
        l, i, j = es.triple(pos)
        x = es.roots[l][i]
        assert point == (x, fld.add(fld.pow(x, (r + 1) // 2), 1),
                         es.t_value(l, j))
    with pytest.raises(ValueError, match="read-only"):
        es.xyt[0, 0] = 1
    # equal sets compare and hash by their orbits, not by the array
    again = build_evaluation_set(es.params, es.orbit_indices)
    assert again == es and hash(again) == hash(es) and again.xyt is not es.xyt


def _doctored(ob, **fields):
    return (dataclasses.replace(ob, **fields),)


def test_doctored_catalog_raises(f49, monkeypatch):
    # the messages are those of the point-by-point build; the first failing
    # (orbit, root) is named, its surface equation checked first
    sp = surface_params(f49, 3)
    ob0, ob1 = find_nice_orbits(sp)
    assert ob0.roots == (4, 11, 46, 3) and ob0.members == (32, 25, 24, 31)
    cases = [
        # a wrong root
        (_doctored(ob0, roots=(4, 2, 46, 3)),
         "point (x=2, t^4=5) is off the surface"),
        # two wrong roots: the first one in (l, i) order
        (_doctored(ob0, roots=(4, 2, 46, 10)),
         "point (x=2, t^4=5) is off the surface"),
        (_doctored(ob0, roots=(0, 11, 46, 3)),
         "point (x=0, t^4=5) is off the surface"),
        (_doctored(ob0, roots=(1, 11, 46, 3)),
         "point (x=1, t^4=5) is off the surface"),
        # on the surface at t = 0, where s x (1-x) vanishes
        (_doctored(ob0, roots=(2, 11, 46, 3), representative=0,
                   members=(0, 0, 0, 0)),
         "Kummer quantity vanishes at (x=2, t^4=0)"),
        # Kummer at root 0 comes before an off-surface root 1
        (_doctored(ob0, roots=(2, 5, 46, 3), representative=0,
                   members=(0, 0, 0, 0)),
         "Kummer quantity vanishes at (x=2, t^4=0)"),
        # a repeated member
        (_doctored(ob0, members=(32, 25, 25, 31)), "evaluation points collide"),
    ]
    for catalog, message in cases:
        monkeypatch.setattr(construction, "find_nice_orbits",
                            lambda params, catalog=catalog: catalog)
        with pytest.raises(InternalNicenessViolation) as info:
            build_evaluation_set(sp, (0,))
        assert str(info.value) == message
    # the second orbit is named by its own t^4
    bad = (ob0, *_doctored(ob1, roots=(ob1.roots[0], 2, *ob1.roots[2:])))
    monkeypatch.setattr(construction, "find_nice_orbits", lambda params: bad)
    with pytest.raises(InternalNicenessViolation,
                       match=r"^point \(x=2, t\^4=%d\) is off the surface$"
                       % f49.pow(ob1.representative, 4)):
        build_evaluation_set(sp)


def test_selection_errors(sp169):
    with pytest.raises(EmptySelection):
        build_evaluation_set(sp169, [])
    with pytest.raises(ValueError):
        build_evaluation_set(sp169, [1, 1])
    with pytest.raises(IndexError):
        build_evaluation_set(sp169, [0, 5])


def test_recovery_indices(sp169):
    es = build_evaluation_set(sp169, [0, 3])
    for l in range(2):
        for i in range(4):
            for j in range(4):
                hor, ver = recovery_indices(es, l, i, j)
                assert len(hor) == 3 and len(ver) == 3
                assert set(hor).isdisjoint(ver)
                assert (l, i, j) not in hor + ver
                assert all(hl == l and hi == i and hj != j for hl, hi, hj in hor)
                assert all(vl == l and vi != i and vj == j for vl, vi, vj in ver)
                assert {h[2] for h in hor} | {j} == {0, 1, 2, 3}
                assert {v[1] for v in ver} | {i} == {0, 1, 2, 3}
                assert len({(l, i, j), *hor, *ver}) == 7
    for pos in range(es.n):
        l, i, j = es.triple(pos)
        horizontal, vertical = es.fibers(pos)
        assert len(horizontal) == len(vertical) == 4
        assert set(horizontal) & set(vertical) == {pos}
        assert all(es.triple(k)[:2] == (l, i) for k in horizontal)
        assert all(es.triple(k)[::2] == (l, j) for k in vertical)
        for fiber, rest in zip((horizontal, vertical),
                               recovery_indices(es, l, i, j)):
            assert [k for k in fiber if k != pos] == [
                es.point_index(*trip) for trip in rest]
    for pos in (-1, es.n):
        with pytest.raises(IndexError):
            es.fibers(pos)
    with pytest.raises(IndexError):
        recovery_indices(es, 0, 0, 7)


def test_m_bounds():
    assert m_sufficient(5, 3) == 4
    assert m_sufficient(9, 3) == 3
    assert m_sufficient(13, 3) == 2
    assert m_sufficient(49, 3) == 1  # q >= 2*(r+1)! already
    assert m_sufficient(53, 3) == 1
