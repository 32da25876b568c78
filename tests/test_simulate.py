"""Simulator determinism, repair-path accounting, and failure sweeps."""

import io
import json
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibered_lrc.construction import (build_evaluation_set, find_nice_orbits,
                                      surface_params)
from fibered_lrc import simulate
from fibered_lrc.gf import make_field
from fibered_lrc.serialize import save_json
from fibered_lrc.simulate import (BadScenario, RepairMismatch, run_simulation,
                                  storage_scenario)
from kernel_oracle import reference_simulation


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
    with pytest.raises(RepairMismatch, match="repaired to a wrong value"):
        run_simulation(storage_scenario(es49, 1, 5, seed=3))


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
