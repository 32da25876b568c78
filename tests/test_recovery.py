"""Tests for single-symbol recovery and multi-erasure peeling repair."""

import random
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibered_lrc.construction import build_evaluation_set, recovery_indices, surface_params
from fibered_lrc.gf import make_field
from fibered_lrc.lrc_code import LengthMismatch, encode, generator_matrix
from fibered_lrc.recovery import (
    Corrupted,
    IncompleteRecoverySet,
    _peel_block,
    recover_horizontal,
    recover_vertical,
    repair,
)


@pytest.fixture(scope="module")
def code49(f49):
    es = build_evaluation_set(surface_params(f49, 3), [0])
    return es, generator_matrix(es)


@pytest.fixture(scope="module")
def code49_full(f49):
    es = build_evaluation_set(surface_params(f49, 3), [0, 1])
    return es, generator_matrix(es)


def _erase(codeword, es, triples):
    cw = list(codeword)
    for trip in triples:
        cw[es.point_index(*trip)] = None
    return cw


def _oracle_unrecoverable(es, triples):
    # value-free peeling on the fiber graph; confluent, so any order works
    erased = set(triples)
    changed = True
    while changed:
        changed = False
        for trip in sorted(erased):
            hor, ver = recovery_indices(es, *trip)
            if not (set(ver) & erased) or not (set(hor) & erased):
                erased.remove(trip)
                changed = True
                break
    return erased


def test_zero_codeword(code49):
    es, gm = code49
    cw = list(encode(gm, [0] * 5))
    for pt in es.points:
        trip = (pt.l, pt.i, pt.j)
        hole = _erase(cw, es, [trip])
        assert recover_vertical(es, hole, trip) == 0
        assert recover_horizontal(es, hole, trip) == 0


def test_single_hole_round_trip(code49, code49_full):
    for (es, gm), trials, seed in [(code49, 30, 11), (code49_full, 10, 12)]:
        rng = random.Random(seed)
        for _ in range(trials):
            msg = [rng.randrange(es.field.order) for _ in range(5)]
            cw = encode(gm, msg)
            for idx, pt in enumerate(es.points):
                trip = (pt.l, pt.i, pt.j)
                hole = _erase(cw, es, [trip])
                assert recover_vertical(es, hole, trip) == cw[idx]
                assert recover_horizontal(es, hole, trip) == cw[idx]


def test_availability_disjoint_paths(code49):
    es, gm = code49
    rng = random.Random(21)
    cw = encode(gm, [rng.randrange(49) for _ in range(5)])
    target = (0, 1, 2)
    idx = es.point_index(*target)
    hor, ver = recovery_indices(es, *target)
    # second erasure in the vertical set: only the horizontal path survives
    hole = _erase(cw, es, [target, ver[0]])
    with pytest.raises(IncompleteRecoverySet):
        recover_vertical(es, hole, target)
    assert recover_horizontal(es, hole, target) == cw[idx]
    # and symmetrically
    hole = _erase(cw, es, [target, hor[0]])
    with pytest.raises(IncompleteRecoverySet):
        recover_horizontal(es, hole, target)
    assert recover_vertical(es, hole, target) == cw[idx]


def test_recover_vertical_detects_corruption(code49):
    # the vertical set overdetermines g(x) = f(x, t)/x by one node, so a
    # single corrupted symbol in it always breaks the residual check
    es, gm = code49
    cw = encode(gm, [5, 1, 0, 9, 2])
    fld = es.field
    for pt in es.points:
        target = (pt.l, pt.i, pt.j)
        for trip in recovery_indices(es, *target)[1]:
            hole = _erase(cw, es, [target])
            pos = es.point_index(*trip)
            hole[pos] = fld.add(hole[pos], 1)
            with pytest.raises(Corrupted):
                recover_vertical(es, hole, target)


def test_repair_single_erasure(code49):
    es, gm = code49
    cw = encode(gm, [3, 0, 48, 7, 1])
    for pt in es.points:
        trip = (pt.l, pt.i, pt.j)
        res = repair(es, _erase(cw, es, [trip]))
        assert res.codeword == cw
        assert not res.unrecovered
        assert res.rounds == 1
        assert res.paths[trip] == "V"  # vertical preferred when both free


def test_repair_two_in_one_vertical_set(code49):
    es, gm = code49
    cw = encode(gm, [1, 2, 3, 4, 5])
    a, b = (0, 0, 1), (0, 2, 1)  # same fiber j=1
    res = repair(es, _erase(cw, es, [a, b]))
    assert res.codeword == cw and not res.unrecovered
    assert res.paths[a] == "H" and res.paths[b] == "H"
    assert res.rounds == 1


def test_repair_crossed_fibers(code49):
    # whole vertical fiber plus whole horizontal fiber: the crossing symbol
    # is blocked in round one and repairs only after both sides peel
    es, gm = code49
    cw = encode(gm, [9, 9, 9, 9, 9])
    triples = {(0, i, 0) for i in range(4)} | {(0, 0, j) for j in range(4)}
    assert len(triples) == 7
    res = repair(es, _erase(cw, es, triples))
    assert res.codeword == cw and not res.unrecovered
    assert res.rounds == 2
    assert res.paths[(0, 0, 0)] == "V"


def test_repair_matches_reachability_oracle(code49_full):
    es, gm = code49_full
    rng = random.Random(3407)
    all_triples = [(pt.l, pt.i, pt.j) for pt in es.points]
    for _ in range(60):
        msg = [rng.randrange(49) for _ in range(5)]
        cw = encode(gm, msg)
        k = rng.randrange(1, 21)
        pattern = rng.sample(all_triples, k)
        res = repair(es, _erase(cw, es, pattern))
        assert res.unrecovered == _oracle_unrecoverable(es, pattern)
        assert res.unrecovered <= set(pattern)
        assert res.rounds <= es.n
        for idx, v in enumerate(res.codeword):
            pt = es.points[idx]
            if (pt.l, pt.i, pt.j) in res.unrecovered:
                assert v is None
            else:
                assert v == cw[idx]
        # fixpoint: nothing left has a fully present recovery set
        left = res.unrecovered
        for trip in left:
            hor, ver = recovery_indices(es, *trip)
            assert set(ver) & left and set(hor) & left


def test_repair_empty_and_preerased(code49):
    es, gm = code49
    cw = encode(gm, [5, 4, 3, 2, 1])
    res = repair(es, cw)
    assert res.codeword == cw and res.rounds == 0 and not res.paths
    hole = _erase(cw, es, [(0, 3, 3)])
    res = repair(es, hole)
    assert res.codeword == cw and res.paths[(0, 3, 3)] == "V"


def test_repair_rejects_bad_triple(code49):
    es, gm = code49
    cw = encode(gm, [1, 1, 1, 1, 1])
    # repair reads None holes; the caller's point_index rejects the triple
    with pytest.raises(IndexError):
        repair(es, _erase(cw, es, [(0, 9, 0)]))


def test_repair_rejects_out_of_range_symbols(code49):
    # unchecked, -1 at (0,0,1) was read as 48 and repaired (0,0,0) by path H
    # to 48 where the codeword has 15; 49 and 1.5 ended in a numpy IndexError
    es, gm = code49
    cw = encode(gm, [3, 14, 0, 25, 6])
    holes = _erase(cw, es, [(0, 0, 0), (0, 1, 0)])
    assert repair(es, holes).codeword == cw
    for bad in (-1, 49, 1.5, "3", np.int64(3), True, False):
        word = list(holes)
        word[es.point_index(0, 0, 1)] = bad
        with pytest.raises(ValueError, match="ints in"):
            repair(es, word)
    with pytest.raises(LengthMismatch):
        repair(es, holes[:-1])
    # nothing known: every position stays erased, after no round
    res = repair(es, [None] * es.n)
    assert res.codeword == (None,) * es.n and res.rounds == 0 and not res.paths
    assert res.unrecovered == {(pt.l, pt.i, pt.j) for pt in es.points}
    # nothing erased: the codeword comes back as it is
    res = repair(es, list(cw))
    assert res.codeword == cw and res.rounds == 0 and not res.unrecovered


def test_single_recovery_errors(code49):
    es, gm = code49
    cw = encode(gm, [3, 14, 0, 25, 6])
    for recover in (recover_vertical, recover_horizontal):
        with pytest.raises(IndexError):
            recover(es, cw, (0, 4, 0))
        with pytest.raises(IndexError):
            recover(es, cw, (1, 0, 0))
    # the first other erased symbol of the fiber, in fiber order, is named
    hole = _erase(cw, es, [(0, 2, 2), (0, 3, 2), (0, 1, 2)])
    with pytest.raises(IncompleteRecoverySet,
                       match=f"position {es.point_index(0, 1, 2)} is erased"):
        recover_vertical(es, hole, (0, 3, 2))
    hole = _erase(cw, es, [(0, 1, 3), (0, 1, 1), (0, 1, 0)])
    with pytest.raises(IncompleteRecoverySet,
                       match=f"position {es.point_index(0, 1, 0)} is erased"):
        recover_horizontal(es, hole, (0, 1, 1))
    # a wrong symbol fails the vertical residual; the horizontal check has
    # no spare and repairs into a wrong value
    hole = _erase(cw, es, [(0, 1, 2)])
    pos = es.point_index(0, 0, 2)
    hole[pos] = es.field.add(hole[pos], 1)
    with pytest.raises(Corrupted, match="residual"):
        recover_vertical(es, hole, (0, 1, 2))
    hole = _erase(cw, es, [(0, 1, 2)])
    pos = es.point_index(0, 1, 0)
    hole[pos] = es.field.add(hole[pos], 1)
    assert recover_horizontal(es, hole, (0, 1, 2)) != cw[es.point_index(0, 1, 2)]


@cache
def _code(pm, orbits, r=3):
    es = build_evaluation_set(surface_params(make_field(*pm), r), orbits)
    return es, generator_matrix(es)


@st.composite
def round_trip_cases(draw):
    """A code on F_49, F_121 or F_625 (orbits 0, 1), a message, an erasure
    set, and a point with a partner on its vertical fiber."""
    es, gm = _code(draw(st.sampled_from([(7, 2), (11, 2), (5, 4)])), (0, 1))
    msg = draw(st.lists(st.integers(0, es.field.order - 1),
                        min_size=gm.k, max_size=gm.k))
    positions = draw(st.sets(st.integers(0, es.n - 1), max_size=es.n // 2))
    erased = [(es.points[pos].l, es.points[pos].i, es.points[pos].j)
              for pos in positions]
    pt = es.points[draw(st.integers(0, es.n - 1))]
    partner = draw(st.sampled_from(recovery_indices(es, pt.l, pt.i, pt.j)[1]))
    delta = draw(st.integers(1, es.field.order - 1))
    return es, gm, msg, erased, (pt.l, pt.i, pt.j), partner, delta


@settings(max_examples=120, derandomize=True, deadline=None)
@given(round_trip_cases())
def test_repair_round_trip_property(case):
    es, gm, msg, erased, target, partner, delta = case
    cw = encode(gm, msg)
    res = repair(es, _erase(cw, es, erased))
    assert res.unrecovered == _oracle_unrecoverable(es, erased)
    for trip in res.paths:
        idx = es.point_index(*trip)
        assert res.codeword[idx] == cw[idx]
    # one corrupted symbol in a complete vertical set fails the check
    hole = _erase(cw, es, [target])
    pos = es.point_index(*partner)
    hole[pos] = es.field.add(hole[pos], delta)
    with pytest.raises(Corrupted):
        recover_vertical(es, hole, target)


def _peel_both(es, words):
    """_peel_block on a block of words (None erased) and `repair` on each:
    both outcomes, each the message of Corrupted when it raised that."""
    erased = np.array([[v is None for v in w] for w in words])
    # an erased entry holds a nonzero element, which must not be read
    junk = np.arange(es.n) % (es.field.order - 1) + 1
    work = np.where(erased, junk, np.array([[v or 0 for v in w] for w in words]))
    try:
        path = _peel_block(es, work, erased)
        left = erased & (path == 0)
        block = (np.where(left, 0, work).tolist(), path.tolist(), left.tolist())
    except Corrupted as exc:
        block = str(exc)
    try:
        results = [repair(es, w) for w in words]
    except Corrupted as exc:
        return block, str(exc)
    code = {"V": 1, "H": 2}
    values, paths, left = [], [], []
    for w, res in zip(words, results):
        values.append([0 if v is None else v for v in res.codeword])
        by_pos = {es.point_index(*trip): code[p] for trip, p in res.paths.items()}
        paths.append([by_pos.get(pos, 0) for pos in range(es.n)])
        left.append([res.codeword[pos] is None for pos in range(es.n)])
    return block, (values, paths, left)


@st.composite
def peel_blocks(draw):
    """A code (F_49 on orbit 0 or 0, 1, or F_625 on all 8 orbits; F_49 at
    r = 5, where a fiber's dot product adds more than four terms) and 1 to 6
    words with random erasure sets, some with one known symbol perturbed."""
    es, gm = _code(*draw(st.sampled_from([((7, 2), (0,)), ((7, 2), (0, 1)),
                                          ((5, 4), None), ((7, 2), (0,), 5)])))
    q, words = es.field.order, []
    for _ in range(draw(st.integers(1, 6))):
        word = list(encode(gm, draw(st.lists(st.integers(0, q - 1),
                                             min_size=gm.k, max_size=gm.k))))
        order = draw(st.permutations(range(es.n)))
        erased = order[:draw(st.integers(0, es.n))]
        known = order[len(erased):]
        if known and draw(st.booleans()):
            pos = draw(st.sampled_from(known))
            word[pos] = es.field.add(word[pos], draw(st.integers(1, q - 1)))
        for pos in erased:
            word[pos] = None
        words.append(word)
    return es, words


@settings(max_examples=150, derandomize=True, deadline=None)
@given(peel_blocks())
def test_peel_block_matches_repair(case):
    # same values, V/H paths and unrecovered set, or Corrupted from both
    block, scalar = _peel_both(*case)
    assert block == scalar


def test_peel_block_mixed_rounds(code49):
    es, gm = code49
    cw = encode(gm, [4, 8, 15, 16, 23])
    stair = [(0, 0, 0), (0, 0, 3), (0, 1, 2), (0, 2, 0), (0, 2, 2), (0, 3, 1), (0, 3, 3)]
    square = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    patterns = [[], [(0, 2, 1)], stair, square + [(0, 3, 3)], square]
    words = [_erase(cw, es, pattern) for pattern in patterns]
    assert [repair(es, w).rounds for w in words] == [0, 1, 4, 1, 0]
    block, scalar = _peel_both(es, words)
    assert block == scalar
    values, paths, left = block
    assert values[:3] == [list(cw)] * 3
    # the 2 x 2 rectangle is a stopping set: each of its symbols has
    # another erasure on both of its fibers
    assert [sum(row) for row in left] == [0, 0, 0, 4, 4]
    assert [sum(map(bool, row)) for row in paths] == [0, 1, 7, 1, 0]
