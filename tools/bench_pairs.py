"""Compare one bench workload between a git revision and the working tree.

    python3 tools/bench_pairs.py <rev> <workload> [--pairs 10] [--seconds 20]

`git archive <rev>` unpacks the revision into a temporary directory, so the
repository's `.git` is only read.  Pair k runs `bench/run.py --workload W
--seed k --seconds S --trace 0` once on that copy and once on the working
tree, the revision first in odd pairs and the tree first in even ones.  For
every end-to-end metric of `BENCHMARK.json` the script prints each side's
median and quartiles, the change's median over the revision's, and the
pairs the tree won (ties count for neither side), with its verdicts:

- "gain" when the tree won at least nine tenths of the pairs and the
  medians differ by more than the revision's interquartile range;
- "worse" when the tree's median is worse than the revision's by more than
  the metric's `bound` in `BENCHMARK.json`, relative to the revision's
  median;
- "unresolved" when the revision's own interquartile range, relative to
  its median, is wider than that bound, so that the pairs cannot tell.

A change that claims no gain shows that it costs nothing by reading neither
"worse" nor "unresolved" on any metric.  The wall-clock `pass_s`
and `op_p50_ms` lines that `bench/run.py` prints before its result follow,
with each side's median and quartiles only: host drift moves them, so
they get no verdict.  Any run with `failed` not 0 is printed as it ends,
and makes the script exit 1 after the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL = ("pass_s", "op_p50_ms")      # printed as `name value unit` lines


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `bench/run.py` run, with each metric's value
    and, under "wall", the WALL figures printed before it."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, text=True, capture_output=True)
    if proc.returncode:
        sys.exit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["metrics"] = {k: m["value"] for k, m in out["metrics"].items()}
    out["wall"] = {words[0]: float(words[1]) for words in map(str.split, lines)
                   if len(words) == 3 and words[0] in WALL}
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs, failed = {"rev": [], "tree": []}, []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {args.rev} failed:\n{archive.stderr.decode()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        trees = {"rev": Path(tmp), "tree": ROOT}
        for seed in range(1, args.pairs + 1):
            order = ("rev", "tree") if seed % 2 else ("tree", "rev")
            for side in order:
                out = bench(trees[side], args.workload, seed, args.seconds)
                runs[side].append(out)
                if out["failed"]:
                    failed.append(f"seed {seed} {side}: failed {out['failed']} "
                                  f"of {out['attempted']}")
                    print(failed[-1])
            print(f"pair {seed}: " + ", ".join(
                f"{m['name']} {runs['rev'][-1]['metrics'][m['name']]:.4g} -> "
                f"{runs['tree'][-1]['metrics'][m['name']]:.4g}" for m in metrics),
                flush=True)
    print(f"\n{args.workload}: {args.rev} against the working tree, "
          f"{args.pairs} pairs, --seconds {args.seconds:g}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rev = [r["metrics"][name] for r in runs["rev"]]
        tree = [r["metrics"][name] for r in runs["tree"]]
        wins = sum((t < r) if lower else (t > r) for r, t in zip(rev, tree))
        (r1, r2, r3), (t1, t2, t3) = quartiles(rev), quartiles(tree)
        better = t2 < r2 if lower else t2 > r2
        gain = better and 10 * wins >= 9 * args.pairs and abs(t2 - r2) > r3 - r1
        worse = (t2 - r2 if lower else r2 - t2) > m["bound"] * r2
        unresolved = r3 - r1 > m["bound"] * r2
        verdicts = [word for word, holds in (("gain", gain), ("worse", worse),
                                             ("unresolved", unresolved)) if holds]
        ratio = f"{t2 / r2:.3f}x" if r2 else "-"
        print(f"  {name:12} rev {r2:.4g} [{r1:.4g}, {r3:.4g}]  "
              f"tree {t2:.4g} [{t1:.4g}, {t3:.4g}]  {ratio}  "
              f"won {wins}/{args.pairs}" + "".join(f"  {v}" for v in verdicts))
    for name in WALL:
        (r1, r2, r3), (t1, t2, t3) = (quartiles([r["wall"][name] for r in runs[side]])
                                      for side in ("rev", "tree"))
        print(f"  {name:12} rev {r2:.4g} [{r1:.4g}, {r3:.4g}]  "
              f"tree {t2:.4g} [{t1:.4g}, {t3:.4g}]  (wall clock, no verdict)")
    if failed:
        sys.exit(f"{len(failed)} runs had failed operations:\n" + "\n".join(failed))


if __name__ == "__main__":
    main()
