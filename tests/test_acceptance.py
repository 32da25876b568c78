"""Ship gate: one test per claimed property, frozen expected values.

Each test asserts a single externally meaningful claim about the
construction (orbit counts, exact code tables, bound arithmetic, recovery
behavior, arc splitting, fiber group sums, oracle agreement) so the -v
output reads as a pass/fail checklist.  Known-false claims are asserted
anyway and fail with a message stating the measured fact.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from fibered_lrc.cli import run_table
from fibered_lrc.construction import (build_evaluation_set, find_nice_orbits,
                                      recovery_indices, surface_params)
from fibered_lrc.elliptic_verify import (NonSquareTwist, SingularFiber,
                                         discriminant_profile,
                                         horizontal_sum_two_torsion,
                                         verify_vertical_sum)
from fibered_lrc.gf import make_field
from fibered_lrc.lrc_code import (distance_b1, distance_lower_bound, encode,
                                  f_min_message, generator_matrix,
                                  min_distance, singleton_availability_upper)
from fibered_lrc.newton_arc import (defining_coefficients, lower_hull,
                                    monomial_valuations, pole_degree,
                                    segment_polynomials, splitting_at_infinity,
                                    support_set_at_infinity)
from fibered_lrc.recovery import recover_horizontal, recover_vertical, repair
from fibered_lrc.serialize import write_table_csv
from kernel_oracle import zero_grid_agreement

FIELDS = {"49": (7, 2), "81": (3, 4), "121": (11, 2), "169": (13, 2),
          "625": (5, 4)}

_field_cache = {}


def _field(key):
    if key not in _field_cache:
        _field_cache[key] = make_field(*FIELDS[key])
    return _field_cache[key]


@pytest.fixture(scope="module")
def tables():
    """Exact (q, m, b, n, delta, d) rows for the four small fields."""
    return {key: run_table(_field(key)) for key in ("49", "81", "121", "169")}


# --- 1. small-field table reproduction (exact integers) ----------------------

EXPECTED_ORBITS = {"49": 2, "81": 1, "121": 3, "169": 4, "625": 8}


@pytest.mark.parametrize("key", ["49", "81", "121", "169", "625"])
def test_orbit_count(key):
    orbits = find_nice_orbits(surface_params(_field(key), 3))
    assert len(orbits) == EXPECTED_ORBITS[key], (
        f"the Kummer catalog over {_field(key).label} finds "
        f"{len(orbits)} zeta-orbits of nice elements, not "
        f"{EXPECTED_ORBITS[key]}; the splitting-test oracle in "
        f"test_construction finds the same orbits, and their codes match "
        f"the b<=3 distance pattern of the rest (see the full table), so "
        f"the count "
        f"{EXPECTED_ORBITS[key]} undercounts")


def test_table_49(tables):
    assert tables["49"] == [
        (49, 1, 1, 16, None, 8),
        (49, 1, 1, 16, None, 8),
        (49, 1, 2, 32, 23, 24),
    ]


def test_table_81(tables):
    assert tables["81"] == [(9, 2, 1, 16, None, 8)]


def test_table_121(tables):
    rows = tables["121"]
    assert [r for r in rows if r[2] == 1] == [(121, 1, 1, 16, None, 8)] * 3
    assert [r for r in rows if r[2] == 2] == [(121, 1, 2, 32, 23, 24)] * 3
    assert [r for r in rows if r[2] == 3] == [(121, 1, 3, 48, 39, 40)]


def test_table_169(tables):
    rows = tables["169"]
    assert [r for r in rows if r[2] == 1] == [(13, 2, 1, 16, None, 8)] * 5
    assert [r for r in rows if r[2] == 2] == [(13, 2, 2, 32, 23, 24)] * 10
    assert [r for r in rows if r[2] == 3] == [(13, 2, 3, 48, 39, 40)] * 10
    # the four-orbit code over the canonically expected orbits is sharp:
    # subset (0,2,3,4) is the fourth of the five size-4 combinations
    b4 = [r for r in rows if r[2] == 4]
    assert b4[3] == (13, 2, 4, 64, 55, 55)
    assert all(r[:5] == (13, 2, 4, 64, 55) and r[5] in (55, 56) for r in b4)


@pytest.mark.parametrize("key", ["49", "81", "121", "169"])
def test_table_matches_golden_csv(tables, golden_dir, tmp_path, key):
    p, m = FIELDS[key]
    out = tmp_path / "table.csv"
    with open(out, "w") as fh:
        write_table_csv(tables[key], fh)
    assert out.read_bytes() == (golden_dir / f"table_{p}_{m}.csv").read_bytes()


# --- 2. large-field spot checks ----------------------------------------------

def test_625_chain():
    sp = surface_params(_field("625"), 3)
    expected = {3: 40, 4: 56, 5: 71, 6: 87, 7: 103}
    for b, d_want in expected.items():
        es = build_evaluation_set(sp, tuple(range(b)))
        dist = min_distance(es)
        assert dist.exact and dist.d == d_want, (b, dist.d)
        word = encode(generator_matrix(es), dist.witness)
        assert sum(1 for v in word if v) == d_want, (b, dist.witness)
        if b == 7:
            assert es.n == 112 and distance_lower_bound(es.n, 3) == 103


_TAIL = (1, 2, 542, 2, 2208)


# orbits 0..b-1, read without a CodeProfile: the F_2401 codes from b = 7 on
# have d = n - 10, below the paper's n - 9 (each chain 15-40 s)
@pytest.mark.nightly
@pytest.mark.parametrize("pm, expected", [
    ((7, 4), {2: (24, (1, 0, 735, 0, 0)), 3: (39, _TAIL), 4: (55, _TAIL),
              5: (71, _TAIL), 6: (87, _TAIL), 7: (102, _TAIL),
              8: (118, _TAIL), 9: (134, _TAIL)}),
    # 91 orbits; x·(1 + t²) kills two whole fibers, and nothing beats it
    ((3, 8), {b: (16 * b - 8, (1, 0, 1, 0, 0)) for b in range(2, 11)}),
], ids=["2401", "6561"])
def test_large_field_chain(pm, expected):
    sp = surface_params(make_field(*pm), 3)
    for b, (d_want, witness) in expected.items():
        es = build_evaluation_set(sp, tuple(range(b)))
        dist = min_distance(es)
        assert (dist.exact, dist.d, dist.witness) == (True, d_want, witness), b
        word = encode(generator_matrix(es), dist.witness)
        assert sum(1 for v in word if v) == d_want, b
    if pm == (7, 4):
        assert distance_lower_bound(112, 3) == 103 == expected[7][0] + 1


# --- 3. structural parameters over every constructed code ---------------------

@pytest.mark.parametrize("key", ["49", "81", "121", "169"])
def test_structure_all_subsets(key):
    sp = surface_params(_field(key), 3)
    count = len(find_nice_orbits(sp))
    for b in range(1, count + 1):
        for subset in itertools.combinations(range(count), b):
            es = build_evaluation_set(sp, subset)
            gm = generator_matrix(es)
            assert gm.k == 3 * 2 - 1 == 5
            assert es.n == b * 16
            if b == 1:
                assert min_distance(es).d == 8 == distance_b1(3)
                w = sum(1 for v in encode(gm, f_min_message(es)) if v)
                assert w == 8


# --- 4. bound consistency on every computed b >= 2 code -----------------------

def test_bound_sandwich_and_gap(tables):
    seen = 0
    for rows in tables.values():
        for q, m, b, n, delta, d in rows:
            if b == 1:
                continue
            seen += 1
            assert delta == distance_lower_bound(n, 3) == n - 9
            assert n - 9 <= d <= n - 5
            assert d <= singleton_availability_upper(n, 5, 3)
            assert d - delta in (0, 1), (q, m, b, d)
    assert seen == 31  # 1 + 4 + 26 subsets of size >= 2


# --- 5. recovery properties ----------------------------------------------------

@pytest.mark.parametrize("key", ["49", "81", "121", "169", "625"])
def test_recovery_thousand_messages(key):
    fld = _field(key)
    es = build_evaluation_set(surface_params(fld, 3), (0,))
    gm = generator_matrix(es)
    # both recovery sets are size r and disjoint, at every symbol
    for pos in range(es.n):
        hor, ver = recovery_indices(es, *es.triple(pos))
        assert len(hor) == len(ver) == 3 and not set(hor) & set(ver)
    rng = random.Random(0xACCE97 + fld.order)
    for trial in range(1000):
        msg = [rng.randrange(fld.order) for _ in range(5)]
        cw = encode(gm, msg)
        for pos in range(es.n):
            target = es.triple(pos)
            assert recover_vertical(es, cw, target) == cw[pos]
            assert recover_horizontal(es, cw, target) == cw[pos]
        # two erasures inside one vertical fiber always come back
        j = rng.randrange(4)
        i1, i2 = rng.sample(range(4), 2)
        holes = list(cw)
        holes[es.point_index(0, i1, j)] = holes[es.point_index(0, i2, j)] = None
        res = repair(es, holes)
        assert not res.unrecovered and tuple(res.codeword) == cw


# --- 6. arc splitting suite ----------------------------------------------------

ARC_FIELDS = [(3, 13, 2), (5, 7, 1), (5, 13, 1), (7, 17, 1), (9, 11, 1),
              (9, 41, 1)]


@pytest.mark.parametrize("r,p,m", ARC_FIELDS,
                         ids=[f"r{r}-{p}^{m}" for r, p, m in ARC_FIELDS])
def test_arc_splitting(r, p, m):
    fld = make_field(p, m)
    coeffs = defining_coefficients(fld, r)
    ss = support_set_at_infinity(coeffs, r + 1)
    segs = lower_hull(ss)
    assert [s.slope for s in segs] == [-(r + 1), 0, Fraction(r + 1, r - 1)]
    deltas = [segment_polynomials(s, ss).delta.coeffs for s in segs]
    neg1 = fld.neg(1)
    assert deltas == [(neg1, 1), (neg1, 1), (1, 0, 1)]
    vt = splitting_at_infinity(surface_params(fld, r))
    assert vt.case == (1 if fld.order % 4 == 1 else 2)
    assert sum(pl.e * pl.f for pl in vt.places) == r + 1
    mono = [(i, j) for i in range(1, r - 1) for j in range(r)] + \
        [(r - 1, h) for h in range(r - 1)]
    assert max(pole_degree(i, j, r) for i, j in mono) == 2 * r * r - 2 * r - 1
    assert min(monomial_valuations(vt, i, j)["P1"] for i, j in mono) == 2


# --- 7. elliptic fiber suite ---------------------------------------------------

@pytest.mark.parametrize("key", ["49", "81", "121", "169", "625"])
def test_vertical_fiber_sums(key):
    es = build_evaluation_set(surface_params(_field(key), 3))
    singular = []
    for l in range(es.b):
        for j in range(4):
            try:
                assert verify_vertical_sum(es, l, j)
            except SingularFiber:
                singular.append((l, j, es.t_value(l, j)))
    assert not singular, (
        f"{len(singular)} of {4 * es.b} vertical fibers over {_field(key).label} "
        f"are singular nodal cubics (tbar^4 = 1 at {singular[:4]}...): the "
        f"group sum is undefined there, so 'every vertical fiber sums to O' "
        f"cannot hold; every nonsingular fiber did sum to O")


@pytest.mark.parametrize("key", ["49", "81", "121", "169", "625"])
def test_horizontal_fiber_sums(key):
    fld = _field(key)
    es = build_evaluation_set(surface_params(fld, 3))
    nonsquare = []
    for l in range(es.b):
        for i in range(4):
            try:
                assert horizontal_sum_two_torsion(es, l, i)
            except NonSquareTwist:
                nonsquare.append(es.roots[l][i])
    assert not nonsquare, (
        f"xbar - xbar^2 is a nonsquare at {len(nonsquare)} of {4 * es.b} nice "
        f"roots over {fld.label} (e.g. xbar = {nonsquare[:4]}), so the map to "
        f"a Weierstrass model does not exist over the field there; every "
        f"fiber that does map has a 2-torsion sum")


@pytest.mark.parametrize("key", ["49", "81", "121", "169", "625"])
def test_discriminant_orders(key):
    prof = discriminant_profile(surface_params(_field(key), 3))
    orders = sorted((o for _, o in prof), reverse=True)
    assert orders == [8, 8, 2, 2, 2, 2] and sum(orders) == 24


# --- 8. structural weight oracle vs naive evaluation ---------------------------

def test_weight_oracle_full_sweep(f49):
    es = build_evaluation_set(surface_params(f49, 3), (0,))
    gm = generator_matrix(es)
    started = time.monotonic()
    checked = zero_grid_agreement(es, gm)
    elapsed = time.monotonic() - started
    assert checked == 49 * 49 + 49 + 1  # times 49^2 tails each = 5.88M classes
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
