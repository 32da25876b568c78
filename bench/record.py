"""Record the output of every benchmark operation into ``expected.json``.

    python3 bench/record.py [workload ...]

The recorded outputs are the reference the benchmark checks against, so
they were taken once, at the commit that added the benchmark, and are not
re-recorded by a change that claims a speed-up: a change that alters an
output shows up as failed operations.  Repair outputs are recorded for every
input variant (seed modulo ``VARIANTS``).  Naming workloads re-records only
those and keeps the other entries.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, _import_package


def main(names) -> int:
    _import_package()
    from workloads import RECOVER_POOL, VARIANTS, WORKLOADS, Checker
    path = BENCH / "expected.json"
    names = names or list(WORKLOADS)
    expected = json.loads(path.read_text()) if path.exists() else {}
    expected = {k: v for k, v in expected.items()
                if k.split("/")[0] not in names}
    checker = Checker(expected, record=True)
    for name in names:
        for seed in range(VARIANTS) if name == "repair" else [0]:
            work_dir = OUT / f"record-{name}-{seed}"
            work_dir.mkdir(parents=True, exist_ok=True)
            wl = WORKLOADS[name](seed, work_dir)
            wl.setup()
            wl.prepare()
            plan = ({"sim_passes": 1, "calls": RECOVER_POOL}
                    if name == "repair" else {"passes": 1})
            wl.run(checker, plan=plan)
            shutil.rmtree(work_dir)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(expected[k])}"
             for k in sorted(expected)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
