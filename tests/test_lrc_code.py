"""Tests for basis/encoder/bounds and the exact minimum-distance search."""

import multiprocessing
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibered_lrc import cli, lrc_code, make_field
from fibered_lrc.construction import (build_evaluation_set, find_nice_orbits,
                                      surface_params)
from fibered_lrc.lrc_code import (
    BadLocality,
    BoundsViolation,
    LengthMismatch,
    NotSingleOrbit,
    RankDeficient,
    basis,
    basis_vertices,
    code_profile,
    distance_b1,
    distance_lower_bound,
    encode,
    f_min_message,
    generator_matrix,
    in_basis,
    min_distance,
    singleton_availability_upper,
    _default_chunk,
    _encode_block,
    _fiber_group,
    _fiber_halves,
    _fiber_orbit_triples,
    _half_triples,
    _min_distance_generic,
    _r3_pencil_search,
    _r3_pencils,
    _r3_scan_prefixes,
)
from fibered_lrc.simulate import BLOCK
from kernel_oracle import (_rank, dense_scan_prefixes, naive_encode,
                           naive_generic_search, pencil_agreement,
                           prefix_agreement, scan_distance, scan_reference,
                           unreduced_pencil_search)


@pytest.fixture(scope="module")
def es49(f49):
    return build_evaluation_set(surface_params(f49, 3), [0])


@pytest.fixture(scope="module")
def es49_full(f49):
    return build_evaluation_set(surface_params(f49, 3), [0, 1])


@pytest.fixture(scope="module")
def gm49(es49):
    return generator_matrix(es49)


def test_basis_r3():
    assert basis(3) == ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))


def test_basis_r5_and_exclusion():
    assert len(basis(5)) == 19
    for r in (3, 5, 7):
        assert (r - 1, r - 1) not in basis(r)


def test_basis_bad_locality():
    for r in (1, 2, 4):
        with pytest.raises(BadLocality):
            basis(r)
        with pytest.raises(BadLocality):
            in_basis(1, 0, r)
        with pytest.raises(BadLocality):
            basis_vertices(r)


def test_basis_ranges_and_vertices():
    rng = random.Random(11)
    for r in range(3, 40, 2):
        # 1 <= i <= r-2 with 0 <= j <= r-1, and x^{r-1} t^h with h <= r-2
        mono = {(i, j) for i in range(1, r - 1) for j in range(r)}
        mono |= {(r - 1, h) for h in range(r - 1)}
        assert basis(r) == tuple(sorted(mono)) and len(mono) == r * r - r - 1
        grid = {(i, j) for i in range(-1, r + 2) for j in range(-1, r + 2)}
        assert {ij for ij in grid if in_basis(*ij, r)} == mono
        corners = basis_vertices(r)
        assert set(corners) <= mono
        # the pole degree, v_P1 and random linear forms in (i, j)
        forms = [(r + 1, r), (r + 1, -1)]
        forms += [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(8)]
        for a, b in forms:
            values = [a * i + b * j for i, j in mono]
            at_corners = [a * i + b * j for i, j in corners]
            assert max(at_corners) == max(values)
            assert min(at_corners) == min(values)


def test_generator_matrix_shape_and_columns(es49, gm49, f49):
    assert gm49.k == 5 and gm49.n == 16
    for col, (x, _, t) in enumerate(zip(*es49.xyt.tolist())):
        expect = (
            x,
            f49.mul(x, t),
            f49.mul(x, f49.mul(t, t)),
            f49.mul(x, x),
            f49.mul(f49.mul(x, x), t),
        )
        assert tuple(row[col] for row in gm49.rows) == expect


def test_generator_matrix_full_rank_everywhere(f121, f169):
    for fld in (f121, f169):
        sp = surface_params(fld, 3)
        gm = generator_matrix(build_evaluation_set(sp))
        assert gm.k == 5  # construction raised nothing => rank 5


# 1048573 is the largest prime below 2^20, the largest field order
@pytest.mark.parametrize("pm", [(7, 2), (3, 4), (5, 4), (13, 1), (1048573, 1)])
def test_rank_mod_p_matches_scalar_rank(pm):
    fld = make_field(*pm)
    rng = random.Random(repr(pm))
    for _ in range(30):
        k, n = rng.randint(1, 6), rng.randint(1, 9)
        rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k)]
        for row in range(k):  # make some rows combinations of earlier ones
            if row and rng.random() < 0.4:
                coef = [rng.randrange(fld.order) for _ in range(row)]
                rows[row] = [0] * n
                for c, earlier in zip(coef, rows[:row]):
                    rows[row] = [fld.add(a, fld.mul(c, b))
                                 for a, b in zip(rows[row], earlier)]
        assert lrc_code._rank(fld, np.array(rows)) == _rank(fld, rows)


def test_repeated_monomial_is_rank_deficient(monkeypatch, capsys):
    full = basis(3)
    monkeypatch.setattr(lrc_code, "basis", lambda r: full[:-1] + full[:1])
    es = build_evaluation_set(surface_params(make_field(7, 2), 3))
    with pytest.raises(RankDeficient, match="rank below k=5"):
        generator_matrix(es)
    assert cli.main(["verify", "invariants", "--field", "7^2"]) == 2
    assert "rank below k=5" in capsys.readouterr().err


# m = 1, 2, 4 and 6
@pytest.mark.parametrize("pm", [(101, 1), (7, 2), (5, 4), (3, 6)],
                         ids=["101", "7^2", "5^4", "3^6"])
def test_over_fp_rows_are_digits_of_scaled_rows(pm):
    fld = make_field(*pm)
    gm = generator_matrix(build_evaluation_set(surface_params(fld, 3)))
    assert gm.over_fp.shape == (gm.k * fld.m, gm.n * fld.m)
    for kappa, row in enumerate(gm.rows):
        for d in range(fld.m):
            scaled = [fld.mul(fld.p ** d, v) for v in row]
            want = [(v // fld.p ** e) % fld.p for v in scaled for e in range(fld.m)]
            assert gm.over_fp[kappa * fld.m + d].tolist() == want


def test_encode_basics(es49, gm49, f49):
    zero = encode(gm49, [0] * 5)
    assert set(zero) == {0}
    xs = encode(gm49, [1, 0, 0, 0, 0])
    assert xs == tuple(es49.xyt[0].tolist())
    with pytest.raises(LengthMismatch):
        encode(gm49, [1, 2, 3])
    # 49 is past the log table; -1 would wrap to its last entry; a bool
    # is an int to isinstance, and would pass as 0 or 1
    for bad in (49, -1, True, False):
        with pytest.raises(ValueError, match="ints in"):
            encode(gm49, [bad, 0, 0, 0, 0])


def test_encode_linear(gm49, f49):
    rng = random.Random(4903)
    for _ in range(25):
        u = [rng.randrange(49) for _ in range(5)]
        v = [rng.randrange(49) for _ in range(5)]
        uv = [f49.add(a, b) for a, b in zip(u, v)]
        lhs = encode(gm49, uv)
        rhs = tuple(
            f49.add(a, b) for a, b in zip(encode(gm49, u), encode(gm49, v))
        )
        assert lhs == rhs


@pytest.mark.parametrize("pm", [(7, 2), (5, 4)], ids=["7^2", "5^4"])
def test_encode_block_matches_encode(pm):
    fld = make_field(*pm)
    es = build_evaluation_set(surface_params(fld, 3))
    gm = generator_matrix(es)
    rng = np.random.default_rng(pm)
    rows = max(1, 2**13 // (es.n * fld.m))   # messages per encode chunk
    for size in (1, 64, 65, rows, rows + 1, BLOCK, BLOCK + 1):
        msgs = rng.integers(0, fld.order, size=(size, gm.k))
        msgs[size // 2] = 0
        block = _encode_block(gm, msgs)
        assert block.shape == (size, es.n) and block.dtype == np.int64
        assert [tuple(row) for row in block.tolist()] == \
            [encode(gm, msg) for msg in msgs.tolist()]


def test_encode_block_temporaries_stay_small(f625):
    # a simulation block of F_625 codewords with all 8 orbits (n = 128)
    # encodes in chunks: the temporaries never hold the whole block's digits
    es = build_evaluation_set(surface_params(f625, 3))
    gm = generator_matrix(es)
    msgs = np.random.default_rng(625).integers(0, f625.order, size=(BLOCK, gm.k))
    tracemalloc.start()
    try:
        got = _encode_block(gm, msgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (BLOCK, 128)
    assert peak < got.nbytes + (256 << 10), peak


# F_49 and F_625, two orbits each; a codeword digit sums 10 and 20 products
@pytest.mark.parametrize("pm", [(7, 2), (5, 4)], ids=["7^2", "5^4"])
@pytest.mark.parametrize("cut", ["below", "at"])
def test_generator_matrix_needs_exact_sums(pm, cut, monkeypatch, capsys):
    """With the exact-sum limit cut one below k·m·(p - 1)^2, the generator
    matrix is refused, and a CLI path through it exits 1; at that limit
    the product is built and encodes exactly."""
    fld = make_field(*pm)
    es = build_evaluation_set(surface_params(fld, 3), (0, 1))
    need = 5 * fld.m * (fld.p - 1) ** 2
    monkeypatch.setattr(lrc_code, "_FLOAT_EXACT", need - (cut == "below"))
    label = f"{pm[0]}^{pm[1]}"
    if cut == "below":
        with pytest.raises(ValueError, match="past 2\\^53"):
            generator_matrix(es)
        assert cli.main(["verify", "invariants", "--field", label]) == 1
        assert "float64 is inexact" in capsys.readouterr().err
        return
    gm = generator_matrix(es)
    msgs = np.random.default_rng(pm).integers(0, fld.order, size=(65, gm.k))
    got = _encode_block(gm, msgs)
    assert got.dtype == np.int64
    assert [tuple(row) for row in got.tolist()] == \
        [naive_encode(es, msg) for msg in msgs.tolist()]
    assert cli.main(["verify", "invariants", "--field", label]) == 0


# m = 1, 2, 4 and 6, up to q = 65537; r = 5 has k = 19; on F_65537 the
# float64 sums reach about 5·2^32, past int32 and still exact
@pytest.mark.parametrize("pm, r, orbits", [
    ((7, 2), 3, (0, 1)), ((3, 4), 3, None), ((11, 2), 3, (0, 2)),
    ((13, 2), 3, (1,)), ((5, 4), 3, (0, 1)), ((3, 6), 3, (0,)),
    ((7, 4), 3, (0,)), ((7, 2), 5, None), ((101, 1), 3, (0, 1)),
    ((53, 1), 3, None), ((65537, 1), 3, (0, 1)),
], ids=["7^2", "3^4", "11^2", "13^2", "5^4", "3^6", "7^4", "7^2-r5", "101",
        "53", "65537"])
def test_encode_matches_naive_evaluation(pm, r, orbits):
    fld = make_field(*pm)
    es = build_evaluation_set(surface_params(fld, r), orbits)
    gm = generator_matrix(es)
    rng = random.Random(repr((pm, r, orbits)))
    msgs = [[rng.randrange(fld.order) for _ in range(gm.k)] for _ in range(40)]
    msgs += [[int(i == e) for i in range(gm.k)] for e in range(gm.k)]
    msgs.append([fld.order - 1] * gm.k)
    for msg in msgs:
        word = encode(gm, msg)
        assert word == naive_encode(es, msg), msg
        assert all(type(v) is int for v in word), msg


@pytest.mark.parametrize("pm, r", [((7, 2), 5), ((7, 4), 3)],
                         ids=["7^2-r5", "7^4-r3"])
@pytest.mark.parametrize("budget", [1, 100, 2000])
def test_generic_search_matches_naive_search(pm, r, budget):
    es = build_evaluation_set(surface_params(make_field(*pm), r), (0,))
    got = _min_distance_generic(es, generator_matrix(es), budget)
    assert got == naive_generic_search(es, budget)


def test_scalar_invariance(es49_full, f49):
    gm = generator_matrix(es49_full)
    rng = random.Random(77)
    for _ in range(200):
        msg = [rng.randrange(49) for _ in range(5)]
        c = rng.randrange(1, 49)
        scaled = [f49.mul(c, v) for v in msg]
        assert sum(map(bool, encode(gm, msg))) == sum(
            map(bool, encode(gm, scaled)))


def test_min_distance_single_orbit(es49, gm49):
    res = min_distance(es49)
    assert res.exact
    assert res.d == 8 == distance_b1(3)
    assert sum(map(bool, encode(gm49, res.witness))) == 8
    # full projective class count
    assert res.enumerated == sum(49**e for e in range(5))


def test_min_distance_two_orbits(es49_full):
    res = min_distance(es49_full)
    assert (res.d, res.exact) == (24, True)
    assert sum(map(bool, encode(generator_matrix(es49_full), res.witness))) == 24


def test_min_distance_deterministic(es49_full):
    assert min_distance(es49_full) == min_distance(es49_full)


def test_min_distance_threads_agree(es49_full):
    assert min_distance(es49_full, threads=2) == min_distance(es49_full)


def test_min_distance_threads_have_no_effect(es49_full):
    assert min_distance(es49_full, threads=10_000) == min_distance(es49_full)
    assert multiprocessing.active_children() == []


def test_min_distance_routing_threshold(es49_full):
    # the prefix scan would finish iff budget > q^4 + q^3 = 5 882 450, and
    # exactly then the exact pencil search answers for it
    full = lrc_code.DistanceResult(
        d=24, witness=(1, 0, 7, 0, 0), exact=True, enumerated=5884901)
    assert min_distance(es49_full) == full
    assert min_distance(es49_full, budget=5_882_451) == full
    assert min_distance(es49_full, budget=5_882_450) == lrc_code.DistanceResult(
        d=24, witness=(1, 0, 7, 0, 0), exact=False, enumerated=5882450)


def test_min_distance_budget_and_generic_prefix(es49_full, monkeypatch):
    monkeypatch.setattr(lrc_code, "_default_chunk", lambda q, c: 8)
    full = min_distance(es49_full)
    capped = min_distance(es49_full, budget=30_000)
    assert not capped.exact
    assert capped.enumerated < full.enumerated
    assert capped.d >= full.d
    # the generic search agrees candidate-for-candidate on the same prefix
    gen = _min_distance_generic(es49_full, generator_matrix(es49_full),
                                budget=capped.enumerated)
    assert (gen.d, gen.witness) == (capped.d, capped.witness)
    with pytest.raises(ValueError):
        min_distance(es49_full, budget=0)


def test_min_distance_budget_granularity(es49_full, f169):
    # a budget is checked once per prefix chunk, so these figures pin the
    # chunk size as well as the scan order
    assert min_distance(es49_full, budget=10_000) == lrc_code.DistanceResult(
        d=24, witness=(1, 0, 7, 0, 0), exact=False, enumerated=1229312)
    es = build_evaluation_set(surface_params(f169, 3), [0, 2, 3, 4])
    assert min_distance(es, budget=100 * 169**2) == lrc_code.DistanceResult(
        d=56, witness=(1, 0, 4, 0, 0), exact=False, enumerated=3998540)


def test_min_distance_budget_edge(f169):
    # 20 whole chunks exhaust the budget; one class more buys a 21st chunk
    es = build_evaluation_set(surface_params(f169, 3), [0, 2, 3, 4])
    chunk = _default_chunk(169, es.n)
    assert chunk == 70
    assert min_distance(es, budget=20 * chunk * 169**2) == lrc_code.DistanceResult(
        d=55, witness=(1, 1, 11, 5, 10), exact=False, enumerated=39985400)
    assert min_distance(es, budget=20 * chunk * 169**2 + 1) == lrc_code.DistanceResult(
        d=55, witness=(1, 1, 11, 5, 10), exact=False, enumerated=41984670)


@st.composite
def scan_cases(draw):
    """An F_49 or F_81 code, a range of at most 24 prefixes, a chunk and a
    budget at, or one class either side of, a whole number of chunks."""
    fld = make_field(*draw(st.sampled_from([(7, 2), (3, 4)])))
    sp = surface_params(fld, 3)
    orbits = draw(st.lists(st.integers(0, len(find_nice_orbits(sp)) - 1),
                           min_size=1, max_size=2, unique=True))
    q = fld.order
    a0, first, last = draw(st.sampled_from([(1, 0, q * q), (0, q, 2 * q),
                                            (0, 1, 2)]))
    lo = draw(st.integers(first, last - 1))
    hi = draw(st.integers(lo, min(last, lo + 24)))
    chunk = draw(st.sampled_from([1, 2, 3, 8]))
    whole = draw(st.integers(1, 4)) * chunk * q * q
    budget = draw(st.sampled_from([None, whole - 1, whole, whole + 1]))
    return build_evaluation_set(sp, orbits), a0, lo, hi, chunk, budget


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scan_cases())
def test_budgeted_scan_matches_reference(case):
    es, *scan = case
    assert _r3_scan_prefixes(es, *scan) == scan_reference(
        es, generator_matrix(es), *scan)


# prefixes 7 and 14 of F_49 (0, 1) both reach 8 zeros, in different chunks:
# the later chunk ties the best and must not replace its witness
@pytest.mark.parametrize("budget", [None, 8 * 2 * 49**2])
def test_budgeted_scan_later_chunk_ties(es49_full, budget):
    gm = generator_matrix(es49_full)
    best, *rest = scan_reference(es49_full, gm, 1, 0, 24, 2, budget)
    assert best == (8, (1, 0, 7, 0, 0))
    assert _r3_scan_prefixes(es49_full, 1, 0, 24, 2, budget) == (best, *rest)
    assert _r3_scan_prefixes(es49_full, 1, 14, 24, 2, budget)[0][0] == 8


# prefixes 2q - 3 .. 2q + 4: a chunk of 8 spans a1 = 1 and a1 = 2, and the
# scan splits it at 2q; a0 = 0 takes the same range in its own scan.  The
# budget is unset or one class either side of one whole chunk.
@pytest.mark.parametrize("a0", [1, 0])
@pytest.mark.parametrize("chunk", [3, 8])
@pytest.mark.parametrize("whole", [None, -1, 1])
def test_budgeted_scan_across_multiple_of_q(es49_full, a0, chunk, whole):
    q = 49
    budget = None if whole is None else chunk * q * q + whole
    scan = (a0, 2 * q - 3, 2 * q + 5, chunk, budget)
    assert _r3_scan_prefixes(es49_full, *scan) == scan_reference(
        es49_full, generator_matrix(es49_full), *scan)


def test_budgeted_scan_across_q_on_625(f625):
    # n = 48 << q: prefixes q - 2 .. q + 1 in one default chunk of 5, the
    # best (8 zeros) at prefix q = (1, 1, 0)
    es = build_evaluation_set(surface_params(f625, 3), [0, 1, 2])
    scan = (1, 623, 627, _default_chunk(625, es.n), None)
    best, *rest = scan_reference(es, generator_matrix(es), *scan)
    assert best == (8, (1, 1, 0, 98, 98))
    assert _r3_scan_prefixes(es, *scan) == (best, *rest)


def _dense_agreement(es, scans):
    for scan in scans:
        assert _r3_scan_prefixes(es, *scan) == dense_scan_prefixes(es, *scan), (
            es.orbit_indices, scan)


def _budgets(chunk, q, chunks):
    whole = chunks * chunk * q * q
    return None, whole - 1, whole, whole + 1


@pytest.mark.parametrize("pm", [(7, 2), (3, 4)])
def test_budgeted_scan_matches_dense_counter_on_every_subset(pm, field_cache):
    # the three scan ranges of every orbit subset, at the default chunk,
    # unbudgeted and at 3 whole chunks or one class either side
    sp = surface_params(field_cache(*pm), 3)
    q, count = sp.field.order, len(find_nice_orbits(sp))
    for b in range(1, count + 1):
        for orbits in combinations(range(count), b):
            es = build_evaluation_set(sp, orbits)
            chunk = _default_chunk(q, es.n)
            _dense_agreement(es, [
                (a0, lo, hi, chunk, budget)
                for a0, lo, hi in ((1, 0, q * q), (0, q, 2 * q), (0, 1, 2))
                for budget in _budgets(chunk, q, 3)])


# windows of 3 default chunks + 3 prefixes across 2q; F_625 0..6 has 218736
# pairs of crossings, so its scan takes 14 blocks of pairs
@pytest.mark.parametrize("pm, orbits", [((11, 2), (0, 1, 2)),
                                        ((13, 2), (0, 2, 3, 4)),
                                        ((5, 4), tuple(range(7)))])
def test_budgeted_scan_matches_dense_counter_across_q(pm, orbits, field_cache):
    es = build_evaluation_set(surface_params(field_cache(*pm), 3), orbits)
    q = es.field.order
    chunk = _default_chunk(q, es.n)
    lo = 2 * q - chunk - 1
    _dense_agreement(es, [(a0, lo, lo + 3 * chunk + 3, chunk, budget)
                          for a0 in (1, 0) for budget in _budgets(chunk, q, 2)])


def test_budgeted_scan_block_boundary_on_625(f625):
    # the 5-zero point of prefix (1, 3, 240) of F_625 0..6 is on the group
    # of the last crossing of a block of pairs: a block cut inside that
    # crossing's pairs would count 4
    es = build_evaluation_set(surface_params(f625, 3), tuple(range(7)))
    scan = (1, 3 * 625 + 240, 3 * 625 + 241, 1, None)
    assert _r3_scan_prefixes(es, *scan) == dense_scan_prefixes(es, *scan) == (
        (5, (1, 3, 240, 172, 179)), 625**2, True)


# recorded from the dense counter, whose calls peak at 46 MB and 414 MB
# traced: its bins grow as g·n·q, and the pairs of crossings do not
@pytest.mark.parametrize("m, call, expected", [
    (10, lambda es, q: _r3_scan_prefixes(es, 1, 0, q * q, 1, 4 * q * q),
     ((4, (1, 0, 0, 6985, 0)), 13947137604, False)),
    (12, lambda es, q: min_distance(es, budget=4 * q * q),
     lrc_code.DistanceResult(40, (1, 0, 1, 0, 0), False, 1129718145924)),
], ids=["3^10-scan", "3^12-min_distance"])
def test_budgeted_scan_at_large_q_stays_small(m, call, expected):
    es = build_evaluation_set(surface_params(make_field(3, m), 3), [0, 1, 2])
    tracemalloc.start()
    try:
        got = call(es, es.field.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("orbits, d", [((0, 1, 2), 40), (tuple(range(7)), 104)])
def test_min_distance_budget_on_625(f625, orbits, d):
    # the bench scan625 searches: 400 prefixes of F_625, n << q
    es = build_evaluation_set(surface_params(f625, 3), orbits)
    assert min_distance(es, budget=400 * 625**2) == lrc_code.DistanceResult(
        d=d, witness=(1, 0, 1, 0, 0), exact=False, enumerated=156250000)


def test_budgeted_scan_keys_past_int32():
    # one whole row of F_3^12 0..6: the keys a2·P + i reach
    # g·P = 531441·6048 ≈ 3.2e9, past int32
    es = build_evaluation_set(surface_params(make_field(3, 12), 3), tuple(range(7)))
    q = es.field.order
    assert es.n * (es.n - 4) // 2 == 6048
    assert _r3_scan_prefixes(es, 1, 0, q, 1, None) == (
        (8, (1, 0, 1, 0, 0)), 150094635296999121, True)


@pytest.mark.parametrize("budget_left", [0, -5])
def test_empty_budgeted_scan_builds_nothing(es49_full, monkeypatch, budget_left):
    # a budget that admits no prefix returns before any field arithmetic
    def refuse(*args):
        raise AssertionError("field arithmetic in an empty scan")

    for name in ("vsum", "vmul", "unspread"):
        monkeypatch.setattr(type(es49_full.field), name, refuse)
    q = es49_full.field.order
    assert _r3_scan_prefixes(es49_full, 0, q, 2 * q, 2, budget_left) == (
        (-1, None), 0, False)
    assert _r3_scan_prefixes(es49_full, 0, q, q, 2, budget_left) == (
        (-1, None), 0, True)


def test_budgeted_scan_refuses_too_many_crossings(f625, monkeypatch):
    # F_625 0..6: n = 112 points, 112·108/2 = 6048 crossings
    es = build_evaluation_set(surface_params(f625, 3), tuple(range(7)))
    monkeypatch.setattr(lrc_code, "_MAX_CROSSINGS", 6047)
    with pytest.raises(ValueError, match="n = 112 points has 6048 crossings"):
        min_distance(es, budget=1)
    monkeypatch.setattr(lrc_code, "_MAX_CROSSINGS", 6048)
    assert min_distance(es, budget=1).enumerated == _default_chunk(625, 112) * 625**2


def test_exact_search_refuses_too_much_work(f625, monkeypatch):
    # F_625 0..6: n = 112 points, C(112, 3)·112/16 = 1595440 steps
    es = build_evaluation_set(surface_params(f625, 3), tuple(range(7)))
    monkeypatch.setattr(lrc_code, "_MAX_PENCIL_WORK", 1595439)
    with pytest.raises(ValueError, match="n = 112 points takes about 1595440"):
        min_distance(es)
    with pytest.raises(ValueError, match="pass --budget"):
        min_distance(es, budget=625**4 + 625**3 + 1)   # the exact search too
    monkeypatch.setattr(lrc_code, "_MAX_PENCIL_WORK", 1595440)
    assert min_distance(es).exact


@st.composite
def kernel_cases(draw):
    """An orbit subset of F_81, F_121 or F_169 and one x-block prefix.

    Half of the prefixes vanish at a drawn fiber's t̄, where its r+1 lines
    coincide; a(t) = (1 - t/t̄)(1 - t/s) may vanish at a second fiber s too.
    """
    fld = make_field(*draw(st.sampled_from([(3, 4), (11, 2), (13, 2)])))
    sp = surface_params(fld, 3)
    orbits = draw(st.lists(st.integers(0, len(find_nice_orbits(sp)) - 1),
                           min_size=1, max_size=3, unique=True))
    es = build_evaluation_set(sp, orbits)
    elem = st.integers(0, fld.order - 1)
    if draw(st.booleans()):
        fibers = st.sampled_from([t for ob in es.orbits for t in ob.members])
        t = draw(fibers)
        if draw(st.booleans()):
            s = draw(st.one_of(fibers, st.integers(1, fld.order - 1)))
            a1 = fld.neg(fld.add(fld.inv(t), fld.inv(s)))
            prefix = (1, a1, fld.inv(fld.mul(t, s)))
        else:
            prefix = (0, 1, fld.neg(fld.inv(t)))  # t + a2·t² = 0
    else:
        prefix = draw(st.one_of(st.tuples(st.just(1), elem, elem),
                                st.tuples(st.just(0), st.just(1), elem),
                                st.just((0, 0, 1))))
    return es, prefix


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kernel_cases())
def test_kernel_matches_naive_grid(case):
    es, prefix = case
    prefix_agreement(es, generator_matrix(es), prefix)


@st.composite
def pencil_cases(draw):
    """An orbit subset (b <= 4) of F_81, F_121 or F_169 and a point triple.

    The three points lie on three distinct vertical fibers, as the pencil
    kernel requires.
    """
    fld = make_field(*draw(st.sampled_from([(3, 4), (11, 2), (13, 2)])))
    sp = surface_params(fld, 3)
    orbits = draw(st.lists(st.integers(0, len(find_nice_orbits(sp)) - 1),
                           min_size=1, max_size=4, unique=True))
    es = build_evaluation_set(sp, orbits)
    fibers = draw(st.lists(st.integers(0, 4 * es.b - 1), min_size=3,
                           max_size=3, unique=True))
    roots = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    triple = tuple(es.point_index(f // 4, i, f % 4)
                   for f, i in zip(fibers, roots))
    return es, triple


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pencil_cases())
def test_pencil_kernel_matches_naive_pencil(case):
    es, triple = case
    fld, gm = es.field, generator_matrix(es)
    pencil_agreement(es, gm, triple)
    # every power of Frobenius with every power of ζ, whether or not the
    # code is kept by them: the kernel applies the maps it is given
    pencil_agreement(es, gm, triple, [(fld.p ** e, fld.pow(es.params.zeta, s))
                                      for e in range(fld.m) for s in range(4)])


# (0, 1, 2) and (0, 1, 3): a fourth point lies on every member of the
# pencil; (8, 32, 45) and (0, 22, 28): the least best member is (0, 1);
# (18, 19, 32) and (10, 42, 60): it kills the fiber of point 32 or 42,
# whose key -1/t̄ the kernel scores without evaluating that fiber
@pytest.mark.parametrize("pm, orbits, triple", [
    ((13, 2), (0, 2, 3, 4), (0, 1, 2)),
    ((13, 2), (0, 2, 3, 4), (8, 32, 45)),
    ((11, 2), (0, 1, 2), (0, 1, 2)),
    ((11, 2), (0, 1, 2), (0, 22, 28)),
    ((3, 4), (0,), (0, 1, 3)),
    ((11, 2), (0, 1, 2), (18, 19, 32)),
    ((13, 2), (0, 2, 3, 4), (10, 42, 60)),
])
def test_pencil_kernel_special_triples(pm, orbits, triple):
    es = build_evaluation_set(surface_params(make_field(*pm), 3), orbits)
    pencil_agreement(es, generator_matrix(es), triple)


def test_pencil_images_invariant_under_fiber_group():
    # the best messages on the fibers g(T) are the images of those on T,
    # so the least image of a triple's best messages is the same for each
    # g in G: on F_121 (0, 1, 2) and F_3^6 (2, 4, 5) σ joins the shift
    for pm, orbits in [((11, 2), (0, 1, 2)), ((3, 6), (2, 4, 5))]:
        es = build_evaluation_set(surface_params(make_field(*pm), 3), orbits)
        fibers = np.asarray([es.fibers(es.point_index(l, 0, j))[1]
                             for l in range(es.b) for j in range(4)])
        images, perms = _fiber_group(es, es.xyt[2, fibers[:, 0]].tolist())
        for tri in _fiber_orbit_triples(perms):
            want = _r3_pencils(es, fibers[[tri]], images)
            for g in perms:
                assert _r3_pencils(es, fibers[[np.sort(g[tri])]], images) \
                    == want, (orbits, tri, g)


@pytest.mark.parametrize("pm, orbits", [((11, 2), (0, 1, 2)),
                                        ((13, 2), (0, 2, 3, 4))])
def test_pencil_search_matches_full_scan(pm, orbits):
    es = build_evaluation_set(surface_params(make_field(*pm), 3), orbits)
    res = min_distance(es)
    assert (res.d, res.witness) == scan_distance(es, generator_matrix(es))


def _orbit_subsets(pm, containing=(), sizes=None):
    sp = surface_params(make_field(*pm), 3)
    count = len(find_nice_orbits(sp))
    for b in sizes or range(1, count + 1):
        for orbits in combinations(range(count), b):
            if set(containing) <= set(orbits):
                yield build_evaluation_set(sp, orbits)


def _search_matches_oracle(es):
    """(zeros, witness) of the search, checked against the unreduced
    search and against the place-wise bound: at most 2r² - 2r - 2 = 10
    zeros, so d >= n - 10."""
    best = _r3_pencil_search(es)
    assert best == unreduced_pencil_search(es), es.orbit_indices
    assert best[0] <= 10, es.orbit_indices
    return best


# every orbit subset of F_49..F_169 (1 + 3 + 7 + 31 = 42 codes), and the
# 41 of F_3^6 with b <= 3: on (2, 4) and (2, 5) the witness comes from a
# skipped triple, found only as an image of a searched one's best message,
# and with b = 3, σ³ (or σ) joins the shift: |G| is 8 or 24
@pytest.mark.parametrize("pm, sizes", [
    ((7, 2), None), ((3, 4), None), ((11, 2), None), ((13, 2), None),
    ((3, 6), (1, 2)), ((3, 6), (3,)),
], ids=["49", "81", "121", "169", "729-b2", "729-b3"])
def test_pencil_search_matches_unreduced_search(pm, sizes):
    for es in _orbit_subsets(pm, sizes=sizes):
        _search_matches_oracle(es)


@st.composite
def oracle_cases(draw):
    """An orbit subset with b <= 3 of F_5^4 (q = 5, m = 4) or F_7^4."""
    sp = surface_params(make_field(*draw(st.sampled_from([(5, 4), (7, 4)]))), 3)
    orbits = draw(st.lists(st.integers(0, len(find_nice_orbits(sp)) - 1),
                           min_size=1, max_size=3, unique=True))
    return build_evaluation_set(sp, orbits)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(oracle_cases())
def test_pencil_search_matches_unreduced_search_on_big_fields(es):
    _search_matches_oracle(es)


def test_pencil_search_on_3_6_below_lower_bound():
    # a shape-A witness: x·(t - t̄)·(...) kills the whole fiber at t̄
    es = build_evaluation_set(surface_params(make_field(3, 6), 3), (2, 4, 5))
    witness = (0, 1, 327, 46, 79)
    assert _search_matches_oracle(es) == (10, witness)
    assert es.n == 48 and distance_lower_bound(es.n, 3) == 39
    zeros = [es.triple(c) for c, v in enumerate(naive_encode(es, witness))
             if v == 0]
    fibers = sorted(Counter((l, j) for l, _, j in zeros).values())
    assert len(zeros) == 10 and fibers == [1] * 6 + [4]


@pytest.mark.nightly
def test_pencil_search_matches_unreduced_search_on_3_6():
    # all 57 subsets with b >= 2: the 8 containing {2, 4, 5} have 10
    # zeros, the others 8
    for es in _orbit_subsets((3, 6), sizes=range(2, 7)):
        zeros = 10 if {2, 4, 5} <= set(es.orbit_indices) else 8
        assert _search_matches_oracle(es)[0] == zeros, es.orbit_indices


@pytest.mark.nightly
def test_pencil_search_matches_unreduced_search_on_625_chain():
    sp = surface_params(make_field(5, 4), 3)
    for b in range(3, 8):
        _search_matches_oracle(build_evaluation_set(sp, tuple(range(b))))


def test_fiber_orbit_triples_one_per_orbit():
    # the fibers of F_121 (0, 1, 2), F_169 (0, 2, 3, 4) and F_3^6 (2, 4, 5)
    # are kept by σ (|G| = 8, 8, 24), those of F_169 (0, 1, 2, 3) by no
    # power of σ
    for pm, orbits, kept_count in [
            ((11, 2), (0, 1, 2), 35), ((13, 2), (0, 2, 3, 4), 77),
            ((13, 2), (0, 1, 2, 3), 140), ((3, 6), (2, 4, 5), 13)]:
        fld = make_field(*pm)
        es = build_evaluation_set(surface_params(fld, 3), orbits)
        # fiber l·4 + j is t = members[j] of orbit l
        tf = [es.t_value(l, j) for l in range(es.b) for j in range(4)]
        where = {t: f for f, t in enumerate(tf)}
        perms = _fiber_group(es, tf)[1].tolist()
        maps = {tuple(where.get(fld.mul(fld.pow(es.params.zeta, s),
                                        fld.pow(t, fld.p ** e))) for t in tf)
                for e in range(fld.m) for s in range(4)}
        group = set(map(tuple, perms))
        # each g maps fiber t̄ to the chosen fiber ζ^s·t̄^(p^e); the identity
        # and the shift are in G, and so is g·h for g, h in G
        assert group <= maps and len(group) == len(perms) <= 4 * fld.m
        assert tuple(range(len(tf))) in group
        assert tuple(f - f % 4 + (f + 1) % 4 for f in range(len(tf))) in group
        assert all(tuple(g[f] for f in h) in group for g in perms for h in perms)
        # the kept triples' G-orbits are disjoint and cover all C(F, 3)
        kept = _fiber_orbit_triples(np.asarray(perms)).tolist()
        images = [{tuple(sorted(g[f] for f in tri)) for g in perms}
                  for tri in kept]
        assert sum(map(len, images)) == len(set().union(*images)) \
            == len(list(combinations(range(len(tf)), 3))), orbits
        assert len(kept) == kept_count, orbits


def _fiber_perms(es):
    """The fiber permutations of G (_fiber_group)."""
    tf = [es.t_value(l, j) for l in range(es.b) for j in range(4)]
    return _fiber_group(es, tf)[1]


def _nearest_half(perms):
    """min |2·|A| - F| over the unions A of orbits, by a bitset of sums."""
    reach = 1
    for size in Counter(perms.min(axis=0).tolist()).values():
        reach |= reach << size
    nf = perms.shape[1]
    return min(abs(2 * s - nf) for s in range(nf + 1) if reach >> s & 1)


@pytest.mark.parametrize("pm, orbits, kept", [
    ((11, 2), (0, 1, 2), 11), ((13, 2), (0, 2, 3, 4), 17),
    ((13, 2), (0, 1, 2, 3), 28), ((13, 2), (0, 4), 7),
    ((3, 6), (2, 4, 5), 13), ((3, 6), (0, 1, 2, 3, 4), 45),
    ((5, 4), tuple(range(8)), 90)])
def test_fiber_halves_are_unions_of_orbits(pm, orbits, kept):
    es = build_evaluation_set(surface_params(make_field(*pm), 3), orbits)
    perms = _fiber_perms(es)
    half = _fiber_halves(perms)
    # each half is closed under every g in the group, and no union of
    # orbits is nearer F/2
    assert all((half[g] == half).all() for g in perms), orbits
    assert abs(2 * int(half.sum()) - len(half)) == _nearest_half(perms)
    # every kept triple lies in one half, and each triple inside a half
    # has its lex-least image among the kept
    tri = _half_triples(perms)
    assert len(tri) == kept, orbits
    inside = half[tri]
    assert (inside.all(axis=1) | ~inside.any(axis=1)).all()
    keep = set(map(tuple, tri.tolist()))
    for t in map(list, combinations(range(len(half)), 3)):
        if half[t].all() or not half[t].any():
            assert min(tuple(sorted(g[t])) for g in perms) in keep


# F_3^8: σ keeps all 91 orbits, and G makes 15 orbits of the 364 fibers;
# no σ^k keeps orbits 0..89, so G is the shift alone, with 90 orbits of 4
# and 2^90 unions.  A subset sum takes at most F + 1 sums.
@pytest.mark.parametrize("orbits, count", [(range(91), 15), (range(90), 90)])
def test_fiber_halves_fast_with_many_orbits(orbits, count):
    es = build_evaluation_set(surface_params(make_field(3, 8), 3), orbits)
    perms = _fiber_perms(es)
    assert len(np.unique(perms.min(axis=0))) == count
    start = time.perf_counter()
    half = _fiber_halves(perms)
    assert time.perf_counter() - start < 1.0
    assert all((half[g] == half).all() for g in perms)
    assert abs(2 * int(half.sum()) - len(half)) == _nearest_half(perms)


# the best messages meet 5 or 6 fibers, each but one in a single zero: two
# halves hold 3 of them, three groups of orbits may split them 2 + 2 + 1
@pytest.mark.parametrize("pm, orbits", [
    ((13, 2), (0, 2, 3, 4)), ((13, 2), (0, 1, 2, 3, 4)),
    ((3, 6), (0, 1, 2, 3, 4)), ((3, 6), (0, 1, 2, 3, 5))])
def test_pencil_search_where_three_groups_fail(pm, orbits):
    es = build_evaluation_set(surface_params(make_field(*pm), 3), orbits)
    zeros, witness = _search_matches_oracle(es)
    pts = [es.triple(c) for c, v in enumerate(naive_encode(es, witness))
           if v == 0]
    fibers = sorted(Counter((l, j) for l, _, j in pts).values())
    assert len(pts) == zeros and fibers[:-1] == [1] * (len(fibers) - 1) \
        and len(fibers) in (5, 6), orbits


def test_min_distance_on_2401():
    # above 2048, where dense q x q tables once ended the exact search
    es = build_evaluation_set(surface_params(make_field(7, 4), 3), (0, 1, 2))
    witness = (1, 2, 542, 2, 2208)
    assert min_distance(es) == lrc_code.DistanceResult(
        39, witness, True, (2401**5 - 1) // 2400)
    assert naive_encode(es, witness).count(0) == es.n - 39


@pytest.mark.nightly
def test_kernel_matches_naive_grid_on_2401():
    # the witness's prefix; the q x q oracle tables take ~3 s and ~150 MB
    es = build_evaluation_set(surface_params(make_field(7, 4), 3), (0, 1, 2))
    prefix_agreement(es, generator_matrix(es), (1, 2, 542))


def test_min_distance_orbit_permutation(f49):
    sp = surface_params(f49, 3)
    r01 = min_distance(build_evaluation_set(sp, [0, 1]))
    r10 = min_distance(build_evaluation_set(sp, [1, 0]))
    assert (r01.d, r01.witness) == (r10.d, r10.witness)


def test_min_distance_alternative_modulus():
    # same field order, different modulus and generator: identical d values
    alt = make_field(7, 2, (3, 1, 1))
    assert alt.modulus != make_field(7, 2).modulus
    sp = surface_params(alt, 3)
    assert min_distance(build_evaluation_set(sp, [0])).d == 8
    assert min_distance(build_evaluation_set(sp, [0, 1])).d == 24


def test_bounds():
    assert singleton_availability_upper(32, 5, 3) == 27
    assert singleton_availability_upper(16, 5, 3) == 11
    for r in (3, 5, 7):
        k = r * (r - 1) - 1
        for b in range(1, 5):
            n = b * (r + 1) ** 2
            assert singleton_availability_upper(n, k, r) == n - (r * r - 4)
    assert distance_lower_bound(32, 3) == 23
    assert distance_lower_bound(112, 3) == 103
    assert distance_lower_bound(16, 3) == 7
    for r in (3, 5, 7):
        assert distance_b1(r) == 8
    with pytest.raises(BadLocality):
        distance_b1(4)


def test_f_min_message(f49, f121, f169):
    for fld in (f49, f121, f169):
        sp = surface_params(fld, 3)
        es = build_evaluation_set(sp, [0])
        vec = f_min_message(es)
        # r=3: no x²-block terms
        assert vec[3] == vec[4] == 0 and vec[2] != 0
        gm = generator_matrix(es)
        assert sum(map(bool, encode(gm, vec))) == 8
    with pytest.raises(NotSingleOrbit):
        f_min_message(build_evaluation_set(surface_params(f169, 3), [0, 1]))


@pytest.mark.parametrize("p, m, r, orbit", [
    (7, 2, 5, 0), (11, 2, 5, 0), (5, 4, 5, 0), (5, 4, 5, 1), (5, 4, 5, 2),
    (7, 4, 7, 0), (7, 4, 7, 1)])
def test_f_min_message_above_r3(p, m, r, orbit):
    # the r - 3 root factors x - x̄_i are empty at r = 3; here they kill
    # r - 3 of the r + 1 points on each of the two surviving fibers
    es = build_evaluation_set(surface_params(make_field(p, m), r), (orbit,))
    vec = f_min_message(es)
    weight = sum(map(bool, encode(generator_matrix(es), vec)))
    assert weight == distance_b1(r) == 8


def test_code_profile(es49, es49_full):
    prof = code_profile(es49, min_distance(es49))
    assert (prof.n, prof.k, prof.b, prof.availability) == (16, 5, 1, 2)
    assert (prof.d_lower, prof.d_exact, prof.d_upper) == (7, 8, 8)
    assert prof.q == 49 and prof.m == 1
    capped = code_profile(es49_full, min_distance(es49_full, budget=10_000))
    assert capped.d_exact is None
    assert capped.d_upper <= singleton_availability_upper(32, 5, 3)


def test_code_profile_rules(es49):
    # replace reruns __post_init__, so each edited profile is judged anew
    prof = code_profile(es49, min_distance(es49))
    for change in ({"k": 6}, {"n": 17}, {"b": 2}, {"orbit_indices": (0, 1)},
                   {"r": 5}, {"availability": 1}, {"d_lower": 6},
                   {"d_exact": None, "d_upper": 12},  # above n - 5
                   {"d_exact": 7},                    # exact but not d_upper
                   {"d_witness": (1, 0, 0, 0)},
                   {"d_witness": (0, 0, 0, 0, 0)},
                   {"d_witness": (3, 0, 0, 0, 0)}):
        with pytest.raises(BoundsViolation):
            replace(prof, **change)
    assert replace(prof, d_exact=None, d_witness=None).d_upper == 8


def test_code_below_lower_bound_is_refused(f625):
    # F_625 orbits 1..7: a codeword of weight n - 10 = 102, one below the
    # paper's r = 3 bound n - 9; no search needed, only its witness
    es = build_evaluation_set(surface_params(f625, 3), range(1, 8))
    witness = (1, 196, 551, 1, 584)
    assert naive_encode(es, witness).count(0) == 10
    assert (es.n, distance_lower_bound(es.n, 3)) == (112, 103)
    dist = lrc_code.DistanceResult(102, witness, True, (625**5 - 1) // 624)
    with pytest.raises(BoundsViolation,
                       match=r"^d_exact=102 outside \[103, 102\]$"):
        code_profile(es, dist)
