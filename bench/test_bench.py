"""Tests of the benchmark itself; kept out of ``tests/`` so tier-1 does not grow.

    python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fibered_lrc import cli, lrc_code  # noqa: E402


def _inputs(seed, tmp_path):
    tmp_path.mkdir()
    wl = workloads.Repair(seed, tmp_path)
    wl.setup()
    wl.prepare()
    words = {arg: Path(arg).read_text() for case in wl.cases
             for arg in case if arg.endswith(".json") and "codeword" in arg}
    return ([(s.failures, s.trials, s.seed, s.node_of) for s in wl.scenarios],
            [case[6] for case in wl.cases], sorted(words.values()))


def test_repair_inputs_are_deterministic(tmp_path):
    first = _inputs(3, tmp_path / "a")
    assert first == _inputs(3, tmp_path / "b")
    assert first != _inputs(4, tmp_path / "c")
    # seeds alias modulo VARIANTS, for which outputs are recorded
    assert first == _inputs(3 + workloads.VARIANTS, tmp_path / "d")


def test_erasure_kinds():
    rng = __import__("random").Random(0)
    fiber = workloads.erasures(rng, 1, 8, 4).split(";")
    assert len(fiber) == 4 and len({t.split(",")[2] for t in fiber}) == 1
    square = workloads.erasures(rng, 2, 8, 4).split(";")
    assert len(square) == 4 and len({t.split(",")[0] for t in square}) == 1


def test_checker_flags_wrong_expected_value():
    expected = {"op/a": {"d": 8, "witness": [1, 0, 60, 0, 0]}, "op/b": [0, "x"]}
    log = io.StringIO()
    chk = workloads.Checker(expected, out=log)
    assert chk.check("op/a", {"d": 8, "witness": (1, 0, 60, 0, 0)})
    assert not chk.check("op/b", [2, "x"])
    assert not chk.check("op/missing", 1)
    assert (chk.attempted, chk.failed) == (3, 2)
    assert "MISMATCH op/b" in log.getvalue()


def test_recorded_table_matches_golden_csv():
    expected = json.loads((BENCH / "expected.json").read_text())
    golden = (ROOT / "tests" / "golden" / "table_11_2.csv").read_text()
    assert expected["table/csv/11^2"] == golden


def test_self_time_is_span_minus_children():
    ticks = iter([0, 1, 3, 4, 6, 7, 8, 10])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.span("leaf", lambda: None)
    mid = tr.span("mid", lambda: leaf())
    root = tr.span("root", lambda: (mid(), leaf()))
    root()
    # root [0,10] > mid [1,6] > leaf [3,4]; root > leaf [7,8]
    assert [(s.name, s.start, s.end, s.parent) for s in tr.spans] == [
        ("root", 0, 10, None), ("mid", 1, 6, 0), ("leaf", 3, 4, 1),
        ("leaf", 7, 8, 0)]
    assert tracing.self_times(tr.spans) == [10 - 5 - 1, 5 - 1, 1, 1]


def test_tracer_patches_callers_and_restores():
    orig = lrc_code.min_distance
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.min_distance is not orig
        assert cli.main(["verify", "newton", "--field", "7", "--r", "5"]) == 0
    finally:
        tr.remove()
    assert cli.min_distance is orig and lrc_code.min_distance is orig
    names = {s.name for s in tr.spans}
    assert {"cli.main.verify_newton", "newton_arc.splitting_at_infinity",
            "poly.factor_monic"} <= names
    metrics = tracing.layer_metrics(tr.spans)
    assert metrics["cli.main.verify_newton.ms"][0] > 0
    assert metrics["lrc_code.encode.calls"] == (0.0, "count")


def test_metric_names_match_benchmark_json():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    st = workloads.RunStats(lambda: 0.001)
    for _ in range(3):
        st.time(lambda: None)
        st.kinds.append("op")
    st.passes = [(0, 3)]
    chk = workloads.Checker({}, out=io.StringIO())
    chk.check("op", 1)
    assert set(run.end_to_end([0.1], st)) == {
        m["name"] for m in spec["end_to_end"]}
    traced = set(tracing.layer_metrics([])) | {"trace.overhead_frac"}
    traced |= set(run.wall_clock("table", st, chk))
    assert traced == {m["name"] for m in spec["per_layer"]}
