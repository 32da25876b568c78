"""Benchmark entry point for fibered-lrc.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it times the workload with tracing off and reports the
end-to-end metrics (times in units of a calibration kernel, see
``workloads.py``); with ``--trace 1`` it times the same work untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the machine facts, and the
spans of a traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5           # cold set-ups per run: this process + 4 probes


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: time one cold set-up and exit")
    return ap.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / "fibered_lrc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import fibered_lrc.cli  # noqa: F401  (loads every module the tracer patches)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": seed}


def _cold_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def _probe_setups(args, count: int) -> list[float]:
    """Cold set-ups in fresh processes, one after another."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, st) -> dict:
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_rel": _metric(statistics.median(st.pass_relative()), "cal"),
        "op_p50_rel": _metric(st.kind_median(st.relative()), "cal"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_clock(name, st, checker) -> dict:
    """The workloads' own wall-clock figures; each reads 0 on the others."""
    from workloads import percentile

    def only(wanted, value):
        return value if name == wanted else 0.0

    passes = st.pass_seconds()
    calls = st.samples if name == "repair" else []
    return {
        "table_s": _metric(only("table", statistics.median(passes)), "s"),
        "classes_per_s": _metric(
            only("scan625", st.units / sum(passes)), "classes/s"),
        "sim_trials_per_s": _metric(
            only("repair", st.units / sum(passes)), "trials/s"),
        "recover_p50_ms": _metric(
            percentile(calls, 50) * 1e3 if calls else 0.0, "ms"),
        "recover_p90_ms": _metric(
            percentile(calls, 90) * 1e3 if calls else 0.0, "ms"),
        "verify_s": _metric(only("verify", statistics.median(passes)), "s"),
        "failed_ops_frac": _metric(checker.failed / checker.attempted, "ratio"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    from workloads import WORKLOADS, Checker
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        if args.probe:
            print(json.dumps({"setup_s": _cold_setup(wl)}))
            return 0
        expected = json.loads((BENCH / "expected.json").read_text())
        checker = Checker(expected)
        if args.trace:
            return _traced(args, wl, checker)
        setups = [_cold_setup(wl)]
        setups += _probe_setups(args, SETUP_SAMPLES - 1)
        wl.prepare()
        st = wl.run(checker, seconds=args.seconds)
        metrics = end_to_end(setups, st)
        info = {
            "pass_s": _metric(statistics.median(st.pass_seconds()), "s"),
            "op_p50_ms": _metric(st.kind_median(st.ops) * 1e3, "ms"),
            **wall_clock(args.workload, st, checker),
            "recover_calls": _metric(float(len(st.samples)
                                           if args.workload == "repair"
                                           else 0), "count"),
            "setup_samples": _metric(float(len(setups)), "count"),
            "passes": _metric(float(len(st.passes)), "count"),
        }
        return _finish(args, checker, metrics, info,
                       {"setups": setups, "passes": st.passes,
                        "ops": st.ops, "cal": st.cal,
                        "samples_from": st.samples_from})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _traced(args, wl, checker) -> int:
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.remove()
    wl.prepare()
    plain = wl.run(checker, seconds=args.seconds / 2)
    tracer.install()
    try:
        traced = wl.run(checker, plan=plain.plan)
    finally:
        tracer.remove()
    metrics = {k: _metric(v, u)
               for k, (v, u) in layer_metrics(tracer.spans).items()}
    metrics["trace.overhead_frac"] = _metric(
        (traced.busy - plain.busy) / plain.busy, "ratio")
    metrics.update(wall_clock(args.workload, plain, checker))
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    spans.write_text(json.dumps(tracer.dump()))
    return _finish(args, checker, metrics, {})


def _finish(args, checker, metrics, info, samples=None) -> int:
    facts = machine_facts(args.seed)
    facts.update(workload=args.workload, seconds=args.seconds,
                 trace=args.trace)
    for name, m in {**metrics, **info}.items():
        print(f"{name:48} {m['value']:.6g} {m['unit']}")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "info": info, "facts": facts,
                                "samples": samples}, indent=2))
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
