"""Simulator determinism, repair-path accounting, and failure sweeps."""

import dataclasses
import io
import json
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibered_lrc.construction import (build_evaluation_set, find_nice_orbits,
                                      surface_params)
from fibered_lrc import simulate
from fibered_lrc.gf import make_field
from fibered_lrc.lrc_code import generator_matrix
from fibered_lrc.serialize import save_json
from fibered_lrc.simulate import (BLOCK, BadScenario, RepairMismatch,
                                  StorageScenario, run_simulation,
                                  storage_scenario)
from kernel_oracle import generator_draws, reference_simulation


@pytest.fixture(scope="module")
def es49(f49):
    return build_evaluation_set(surface_params(f49, 3), (0,))


@pytest.fixture(scope="module")
def es49b2(f49):
    return build_evaluation_set(surface_params(f49, 3), (0, 1))


@pytest.fixture(scope="module")
def es625(f625):
    return build_evaluation_set(surface_params(f625, 3))   # all 8 orbits


def _report_text(report) -> str:
    buf = io.StringIO()
    save_json(report.to_dict(), buf)
    return buf.getvalue()


def test_single_failure_always_repairs(es49):
    rep = run_simulation(storage_scenario(es49, 1, 200, seed=11))
    assert rep.success_rate == 1.0
    assert rep.reads_per_repair == 3
    assert all(c == 1 for c in rep.repaired_per_trial)
    assert all(u == 0 for u in rep.unrecovered_per_trial)
    # peeling prefers the vertical set when both are intact
    assert rep.path_histogram == {"V": 200, "H": 0}


def test_double_failures_always_repair(es49b2):
    rep = run_simulation(storage_scenario(es49b2, 2, 300, seed=5))
    assert rep.success_rate == 1.0
    assert sum(rep.path_histogram.values()) == 600
    # some trials collide inside one fiber and must cross over to H
    assert rep.path_histogram["H"] > 0


def test_group_by_fiber_loses_whole_fiber(es49):
    sc = storage_scenario(es49, 1, 50, seed=2, group_by_fiber=True)
    assert sc.node_count == 4  # b(r+1) fiber-nodes
    rep = run_simulation(sc)
    assert rep.success_rate == 1.0
    assert all(c == 4 for c in rep.repaired_per_trial)
    # a whole vertical fiber can only come back horizontally
    assert rep.path_histogram == {"V": 0, "H": 200}


def test_all_nodes_failed(es49):
    rep = run_simulation(storage_scenario(es49, es49.n, 5, seed=0))
    assert rep.success_rate == 0.0
    assert all(u == es49.n for u in rep.unrecovered_per_trial)


def test_zero_failures(es49):
    rep = run_simulation(storage_scenario(es49, 0, 3, seed=0))
    assert rep.success_rate == 1.0
    assert rep.path_histogram == {"V": 0, "H": 0}


def test_deterministic_reports(es49b2):
    a = run_simulation(storage_scenario(es49b2, 3, 80, seed=99))
    b = run_simulation(storage_scenario(es49b2, 3, 80, seed=99))
    assert a == b
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)
    c = run_simulation(storage_scenario(es49b2, 3, 80, seed=100))
    assert c != a


def test_heavy_failures_partially_recover(es49):
    # 6 of 16 nodes out: some trials fail, every repaired symbol is exact
    # (run_simulation asserts symbol equality internally)
    rep = run_simulation(storage_scenario(es49, 6, 60, seed=21))
    assert 0.0 < rep.success_rate < 1.0
    assert any(u > 0 for u in rep.unrecovered_per_trial)


def test_bad_scenarios(es49):
    for failures, trials, seed in ((-1, 10, 0), (17, 10, 0), (1, 0, 0),
                                   (1, 10, -3)):
        with pytest.raises(BadScenario):
            storage_scenario(es49, failures, trials, seed)


def test_wrong_repair_raises(es49, monkeypatch):
    # the simulation checks each repaired symbol explicitly, not by an
    # assert, so the check also runs under python -O
    peel = simulate._peel_block

    def off_by_one(es, work, erased):
        path = peel(es, work, erased)
        work[path > 0] = es.field.vsum(work[path > 0], 1)
        return path

    monkeypatch.setattr(simulate, "_peel_block", off_by_one)
    # every repair is wrong; the error names trial 0's first pick, which
    # is not its lowest erased position, from the same PCG64(3) stream
    rng = np.random.Generator(np.random.PCG64(3))
    rng.integers(0, es49.field.order, size=generator_matrix(es49).k)
    picks = rng.choice(es49.n, size=3, replace=False)   # one symbol per node
    assert picks[0] != picks.min()
    with pytest.raises(RepairMismatch,
                       match=f"^symbol at position {picks[0]} repaired to a wrong value$"):
        run_simulation(storage_scenario(es49, 3, 5, seed=3))


def test_uneven_nodes_match_reference(es49b2):
    # built directly: four nodes of 3 symbols, then single-symbol nodes
    # named by their position.  The position table pads the short rows,
    # and the report still matches the trial-by-trial reference.
    node_of = tuple(pos // 3 if pos < 12 else pos for pos in range(es49b2.n))
    for failures, trials in ((2, 70), (5, 64), (24, 3)):
        sc = StorageScenario(es49b2, failures, trials, 7 + failures, node_of)
        assert _report_text(run_simulation(sc)) == \
            _report_text(reference_simulation(sc)), failures


# trial counts around the 64-trial encode block, on one and several orbits
@pytest.mark.parametrize("group_by_fiber", [False, True], ids=["node", "fiber"])
@pytest.mark.parametrize("code", ["es49", "es49b2", "es625"])
def test_blocked_simulation_matches_reference(code, group_by_fiber, request):
    es = request.getfixturevalue(code)
    nodes = storage_scenario(es, 0, 1, 0, group_by_fiber).node_count
    for trials in (1, 63, 64, 65, 129, 200):
        for failures in sorted({0, 1, 2, 8, nodes} & set(range(nodes + 1))):
            sc = storage_scenario(es, failures, trials, 1000 * trials + failures,
                                  group_by_fiber)
            assert _report_text(run_simulation(sc)) == \
                _report_text(reference_simulation(sc)), (trials, failures)


@cache
def _sim_code(pm, orbits):
    return build_evaluation_set(surface_params(make_field(*pm), 3), orbits)


@st.composite
def sim_scenarios(draw):
    pm = draw(st.sampled_from([(7, 2), (11, 2), (5, 4)]))
    count = len(find_nice_orbits(surface_params(make_field(*pm), 3)))
    orbits = tuple(sorted(draw(st.sets(st.integers(0, count - 1), min_size=1))))
    es = _sim_code(pm, orbits)
    group = draw(st.booleans())
    nodes = storage_scenario(es, 0, 1, 0, group).node_count
    return storage_scenario(es, draw(st.integers(0, nodes)),
                            draw(st.integers(1, 140)),
                            draw(st.integers(0, 2**32)), group)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(sim_scenarios())
def test_blocked_simulation_property(scenario):
    assert _report_text(run_simulation(scenario)) == \
        _report_text(reference_simulation(scenario))


def test_simulation_memory_bounded_by_block(es625):
    # encoding every trial at once would hold trials x n ints and arrays
    def peak(trials):
        scenario = storage_scenario(es625, 2, trials, seed=7)
        tracemalloc.start()
        try:
            run_simulation(scenario)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_simulation(storage_scenario(es625, 2, 1, seed=7))   # fill the caches
    assert peak(2000) - peak(64) < 1 << 20


def test_generator_matrix_built_once_per_scenario(es49, monkeypatch):
    built = []

    def counted(es):
        built.append(es)
        return generator_matrix(es)

    monkeypatch.setattr(simulate, "generator_matrix", counted)
    sc = storage_scenario(es49, 2, 10, seed=4)
    assert run_simulation(sc) == run_simulation(sc)
    assert built == [es49]
    # cached beside the five fields, not in them: equality and hashing
    # ignore it
    fresh = storage_scenario(es49, 2, 10, seed=4)
    assert fresh == sc and hash(fresh) == hash(sc)
    assert [fl.name for fl in dataclasses.fields(StorageScenario)] == \
        ["es", "failures", "trials", "seed", "node_of"]


def _count_sequential_draws(monkeypatch) -> list:
    """Record the bound of every draw taken one word at a time."""
    bounds, bounded = [], simulate._bounded

    def counted(words, bound):
        bounds.append(bound)
        return bounded(words, bound)

    monkeypatch.setattr(simulate, "_bounded", counted)
    return bounds


def _assert_draws_match(seed, trials, k, q, nodes, f):
    blocks = list(simulate._draws(seed, trials, k, q, nodes, f))
    assert [len(m) for m, _ in blocks] == \
        [min(BLOCK, trials - start) for start in range(0, trials, BLOCK)]
    msgs, picks = generator_draws(seed, trials, k, q, nodes, f)
    assert np.array_equal(np.concatenate([m for m, _ in blocks]), msgs)
    assert np.array_equal(np.concatenate([p for _, p in blocks]), picks)


@st.composite
def draw_cases(draw, max_nodes=300):
    """(seed, trials, k, q, nodes, f) for ``simulate._draws``: one node,
    no failure and every node failed come often, and trial counts sit
    around 64 and `BLOCK` (128) trials; odd k and trial counts give blocks
    an odd number of words."""
    nodes = draw(st.one_of(st.just(1), st.integers(1, max_nodes)))
    f = draw(st.one_of(st.just(0), st.just(nodes), st.integers(0, nodes)))
    k = draw(st.integers(1, 9))
    q = draw(st.one_of(st.sampled_from([2, 3, 625, 1048573, 2**31 + 12345, 2**32]),
                       st.integers(2, 2**32)))
    trials = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 127, 128, 129]),
                            st.integers(1, 140)))
    # a trial draws up to k + 2f words: keep each case to a few 10^5
    trials = min(trials, max(1, 300_000 // (k + 2 * f)))
    return draw(st.integers(0, 2**32)), trials, k, q, nodes, f


@settings(max_examples=150, derandomize=True, deadline=None)
@given(draw_cases())
def test_draws_match_generator(case):
    _assert_draws_match(*case)


@pytest.mark.nightly
@settings(max_examples=2000, derandomize=True, deadline=None)
@given(draw_cases(max_nodes=20_000))
def test_draws_match_generator_up_to_20000_nodes(case):
    _assert_draws_match(*case)


@pytest.mark.parametrize("seed", range(6))
def test_draws_where_half_the_words_are_rejected(seed, monkeypatch):
    # 2^32 mod (2^31 + 12345) rejects almost half of all words, so most
    # trials are drawn again one word at a time, and one that ends halfway
    # through a PCG64 output leaves its high half to the next
    sequential = _count_sequential_draws(monkeypatch)
    _assert_draws_match(seed, 200, 3, 2**31 + 12345, 7, 3)
    # the trials of the 200 that meet a rejected word
    rejected = [192, 177, 161, 181, 173, 169][seed]
    assert len(sequential) == rejected * (3 + 3 + 2)


@pytest.mark.parametrize("f", [200, 201])
def test_draws_either_side_of_the_tail_shuffle(f, monkeypatch):
    # choice takes its tail shuffle above 10000 nodes once f > nodes // 50:
    # 200 of 10001 is Floyd's sample, drawn as arrays, and 201 the shuffle,
    # drawn one word at a time
    sequential = _count_sequential_draws(monkeypatch)
    _assert_draws_match(5, 66, 5, 625, 10001, f)
    assert bool(sequential) == (f == 201)


@pytest.fixture(scope="module")
def es_huge():
    return build_evaluation_set(surface_params(make_field(1048573, 1), 3), (0,))


# seeds below 4000 whose first block on this code rejects a word
@pytest.mark.parametrize("seed", [1220, 2600, 2866])
def test_huge_field_block_with_a_rejection(es_huge, seed, monkeypatch):
    sequential = _count_sequential_draws(monkeypatch)
    sc = storage_scenario(es_huge, 2, BLOCK + 1, seed)
    assert _report_text(run_simulation(sc)) == _report_text(reference_simulation(sc))
    assert len(sequential) == 1 * (5 + 2 + 1)   # the one trial with the rejection
