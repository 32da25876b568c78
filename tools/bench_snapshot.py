"""Write BENCH_<n>.json: the four bench workloads and the test suites' wall times.

    python3 tools/bench_snapshot.py <n>

Every command runs in the repository root, wherever the script is called
from.  Each workload runs once, as `bench/run.py --workload W --seed 1
--seconds 20 --trace 0`, and the file keeps the `attempted`, `failed`, `metrics`, `info` and
`facts` of the result that run wrote to `.bench_out/W-seed1-trace0.json`.
Then the tier-1 suite (`pytest`) and the nightly suite (`pytest -m
nightly`) run with `src` on the path, and the file keeps each one's wall
time and summary line.  `facts.git_commit` is the checked-out commit;
`worktree_clean` says whether `src/` and `tests/` matched it.  The runs
take about 2 minutes plus the nightly suite.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table", "scan625", "repair", "verify")
KEPT = ("attempted", "failed", "metrics", "info", "facts")


def run(*argv, **kwargs):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, text=True,
                          capture_output=True, **kwargs)
    return proc, time.perf_counter() - start


def main(n: str) -> None:
    snap = {"workloads": {}, "tests": {}}
    for w in WORKLOADS:
        proc, _ = run("bench/run.py", "--workload", w, "--seed", "1",
                      "--seconds", "20", "--trace", "0")
        if proc.returncode:
            sys.exit(f"bench/run.py --workload {w} failed:\n{proc.stderr}")
        out = json.loads((ROOT / ".bench_out" / f"{w}-seed1-trace0.json").read_text())
        snap["workloads"][w] = {key: out[key] for key in KEPT}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    for suite, marks in (("tier1", ()), ("nightly", ("-m", "nightly"))):
        proc, wall = run("-m", "pytest", "-q", "-p", "no:cacheprovider", *marks,
                         env=env)
        snap["tests"][suite] = {"wall_s": round(wall, 1),
                                "summary": proc.stdout.strip().splitlines()[-1]}
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests"],
                            cwd=ROOT, capture_output=True, text=True).stdout
    snap["worktree_clean"] = not status.strip()
    (ROOT / f"BENCH_{n}.json").write_text(json.dumps(snap, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit("usage: python3 tools/bench_snapshot.py <n>")
    main(sys.argv[1])
