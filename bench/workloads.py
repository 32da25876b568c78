"""The four benchmark workloads: inputs, cold set-up, timed passes, checks.

Every workload runs single-threaded (``threads=1``): with ``threads > 1``
``min_distance`` forks a process pool on each call, and on a small shared
machine that path times the scheduler rather than the code.

Each workload reaches the package only through module attributes looked up
at call time (``self.lrc.min_distance``), so the tracer's patches apply.

A fixed calibration kernel, part of the benchmark and never of the program,
runs before each timed operation and after the last one.  On a shared
virtual machine the speed of the host drifts: identical ``recover`` calls
were measured alternating between about 105 and 185 ms of CPU time in
phases of seconds.  An operation's time relative to the calibration runs
around it cancels the part of that drift the kernel sees too.  The kernel
imitates the workload's own work: numpy gathers for the budget-capped
distance calls, scalar lookups in small numpy tables for the pure-Python
field arithmetic.  The exact distance calls of ``table`` last seconds,
longer than the host's speed phases, so there an interval timer also runs
the kernel every 0.1 s inside each call, and the call's relative time uses
those samples (the time spent in them is taken out of the call's time).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# repair inputs depend on seed % VARIANTS; outputs are recorded per variant
VARIANTS = 16
RECOVER_POOL = 128          # distinct recover cases per variant, cycled
CODEWORDS = 16              # codeword files the recover cases draw from
RECOVER_MIN_CALLS = 100     # p90 then has at least 10 samples above it
SIM_TRIALS = 200
SIM_SCENARIOS = ((2, False), (8, False), (2, True))   # (failures, by fiber)
SIM_MIN_PASSES = 5
SCAN_BUDGET = 400 * 625 * 625     # 400 a0 = 1 prefixes of F_625
CAL_WINDOW = 4      # calibration samples on each side of an operation

VERIFY_COMMANDS = tuple(
    [("verify", "newton", "--field", f, "--r", str(r))
     for f, r in (("13^2", 3), ("7", 5), ("13", 5), ("17", 7), ("11", 9),
                  ("5^4", 3))]
    + [("verify", check, "--field", f)
       for check in ("elliptic", "invariants")
       for f in ("7^2", "11^2", "13^2", "5^4")])


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def distance_record(res) -> dict:
    return {"d": res.d, "witness": list(res.witness), "exact": res.exact,
            "enumerated": res.enumerated}


class Checker:
    """Compares each operation's output with the output recorded for it.

    With ``record=True`` it stores outputs instead, which is how
    ``expected.json`` was made.
    """

    def __init__(self, expected: dict, record: bool = False, out=sys.stderr):
        self.expected = expected
        self.record = record
        self.out = out
        self.attempted = 0
        self.failed = 0

    def check(self, key: str, observed) -> bool:
        observed = json.loads(json.dumps(observed))
        self.attempted += 1
        if self.record:
            self.expected.setdefault(key, observed)
        if self.expected.get(key) == observed:
            return True
        self.failed += 1
        print(f"MISMATCH {key}: expected {self.expected.get(key)!r:.300}, "
              f"got {observed!r:.300}", file=self.out)
        return False


_LOG = np.random.default_rng(1).integers(0, 624, size=625, dtype=np.int32)
_EXP = np.random.default_rng(2).integers(0, 625, size=1248, dtype=np.int32)


def python_kernel() -> float:
    """Interpreter-bound calibration work like the field arithmetic's:
    scalar lookups in small numpy log/exp tables."""
    t0 = time.perf_counter()
    acc = 1
    for i in range(1, 3000):
        acc = int(_EXP[_LOG[acc] + _LOG[i % 624 + 1]]) or 1
    return time.perf_counter() - t0


_GATHER: list = []     # (table, index, out, masked), made on first use


def numpy_kernel() -> float:
    """Memory-bound calibration work like the distance kernel's: two
    dependent gathers from a 2 MB table, into buffers it allocates once."""
    if not _GATHER:
        rng = np.random.default_rng(0)
        _GATHER.append(rng.integers(0, 1 << 21, size=1 << 19, dtype=np.int32))
        _GATHER.append(rng.integers(0, 1 << 19, size=1 << 18, dtype=np.int32))
        _GATHER.append(np.empty(1 << 18, dtype=np.int32))
        _GATHER.append(np.empty(1 << 18, dtype=np.int32))
    table, index, out, masked = _GATHER
    t0 = time.perf_counter()
    np.take(table, index, out=out)
    np.bitwise_and(out, (1 << 19) - 1, out=masked)
    np.take(table, masked, out=out)
    return time.perf_counter() - t0


@dataclass
class RunStats:
    """Operation times, with a calibration sample before each operation and
    one after the last.

    An operation's relative time is its duration over the median of the
    calibration samples within ``CAL_WINDOW`` of it, which follows host
    drift over seconds without the noise of a single sample.  With
    ``period`` set, the kernel also runs that often inside each operation,
    and those samples are used instead.
    """

    kernel: object
    repeats: int = 1        # kernel runs per calibration sample (median)
    period: float = 0.0     # > 0: also sample the kernel this often inside
    ops: list = field(default_factory=list)       # seconds per operation
    kinds: list = field(default_factory=list)     # output key per operation
    cal: list = field(default_factory=list)       # calibration seconds
    inside: list = field(default_factory=list)    # per op, sampled inside
    passes: list = field(default_factory=list)    # (first, end) op indices
    samples_from: int = 0   # ops from here on are the latency samples
    units: float = 0.0      # classes (scan625) or trials (repair) timed
    plan: dict = field(default_factory=dict)      # counts, for an exact replay

    def calibrate(self) -> None:
        self.cal.append(statistics.median(
            self.kernel() for _ in range(self.repeats)))

    def time(self, fn, *args):
        if not self.cal:
            for _ in range(3):      # first runs page in and warm the caches
                self.kernel()
            self.calibrate()
        samples = []
        if self.period:
            # an interval timer runs the kernel inside long operations; the
            # handler runs between bytecodes, and its time is taken out
            old = signal.signal(signal.SIGALRM,
                                lambda *_: samples.append(self.kernel()))
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
        finally:
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.ops.append(dt - sum(samples))
        self.inside.append(samples)
        self.calibrate()
        return out

    def relative(self) -> list:
        w = CAL_WINDOW
        return [d / statistics.median(
                    inside or self.cal[max(0, i - w + 1): i + w + 1])
                for i, (d, inside) in enumerate(zip(self.ops, self.inside))]

    def pass_seconds(self) -> list:
        return [sum(self.ops[a:b]) for a, b in self.passes]

    def pass_relative(self) -> list:
        rel = self.relative()
        return [sum(rel[a:b]) for a, b in self.passes]

    @property
    def samples(self) -> list:
        return self.ops[self.samples_from:]

    def kind_median(self, values) -> float:
        """Median over operation kinds of each kind's median sample, so that
        a mix of a few slow and fast kinds does not make it jump."""
        by_kind: dict = {}
        for kind, v in zip(self.kinds[self.samples_from:],
                           values[self.samples_from:]):
            by_kind.setdefault(kind, []).append(v)
        return statistics.median(statistics.median(v)
                                 for v in by_kind.values())

    @property
    def busy(self) -> float:
        """Cost of all operations, in calibration units."""
        return sum(self.relative())


def _pkg():
    from fibered_lrc import (cli, construction, gf, lrc_code, serialize,
                             simulate)
    return cli, construction, gf, lrc_code, serialize, simulate


class Workload:
    name = ""
    kernel = staticmethod(python_kernel)
    cal_repeats = 3         # about 1-3 % of an operation's time
    cal_period = 0.0        # seconds between samples inside an operation

    def __init__(self, seed: int, work_dir):
        (self.cli, self.construction, self.gf, self.lrc, self.serialize,
         self.simulate) = _pkg()
        self.seed = seed
        self.work_dir = work_dir

    def code(self, p, m, orbits=None):
        """Cold construction of one code, as a CLI user pays for it."""
        fld = self.gf.make_field(p, m)
        sp = self.construction.surface_params(fld, 3)
        self.construction.find_nice_orbits(sp)
        fld.np_tables()
        es = self.construction.build_evaluation_set(sp, orbits)
        self.lrc.generator_matrix(es)
        return fld, es

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Inputs from the seed; runs after set-up and is not timed.

        Only ``repair`` has seeded inputs: the other workloads enumerate
        exactly or run a fixed command list, in a fixed order (the order
        changes peak memory and, through it, speed)."""

    def run(self, checker: Checker, seconds=None, plan=None) -> RunStats:
        raise NotImplementedError

    def run_passes(self, ops, checker, seconds, plan) -> RunStats:
        """Repeat the op list as whole passes; each op returns (key, out)."""
        st = RunStats(self.kernel, self.cal_repeats, self.cal_period)
        started = time.perf_counter()

        def more():
            if plan is not None:
                return len(st.passes) < plan["passes"]
            # start a pass only if it should end within the time
            return not st.passes or (time.perf_counter() - started
                                     + st.pass_seconds()[-1] <= seconds)

        while more():
            first = len(st.ops)
            for op in ops:
                key, out = st.time(op)
                st.kinds.append(key)
                checker.check(key, out)
            st.passes.append((first, len(st.ops)))
        st.plan = {"passes": len(st.passes)}
        return st

    def call_cli(self, argv):
        """cli.main with stdout captured; returns (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()


class Table(Workload):
    """Exact distances: every orbit subset of F_121 through ``run_table``,
    plus F_169 orbits (0,) and (0,2,3,4)."""

    name = "table"
    kernel = staticmethod(numpy_kernel)
    cal_period = 0.1        # calls last seconds, longer than speed phases

    def setup(self):
        self.f121, _ = self.code(11, 2)
        _, self.es169_1 = self.code(13, 2, (0,))
        _, self.es169_4 = self.code(13, 2, (0, 2, 3, 4))

    def prepare(self):
        self.ops = [self._table, self._dist(self.es169_1),
                    self._dist(self.es169_4)]

    def _table(self):
        rows = self.cli.run_table(self.f121, 3, 255, 1)
        buf = io.StringIO()
        self.serialize.write_table_csv(rows, buf)
        return "table/csv/11^2", buf.getvalue()

    def _dist(self, es):
        key = (f"table/mindist/{es.field.p}^{es.field.m}/"
               + ",".join(map(str, es.orbit_indices)))

        def op():
            return key, distance_record(self.lrc.min_distance(es, threads=1))
        return op

    def run(self, checker, seconds=None, plan=None):
        return self.run_passes(self.ops, checker, seconds, plan)


class Scan625(Workload):
    """Budget-capped distance search on F_625, where n is much below q."""

    name = "scan625"
    kernel = staticmethod(numpy_kernel)

    def setup(self):
        _, self.es3 = self.code(5, 4, (0, 1, 2))
        _, self.es7 = self.code(5, 4, tuple(range(7)))

    def run(self, checker, seconds=None, plan=None):
        classes = []

        def op_for(es):
            key = "scan625/mindist/5^4/" + ",".join(map(str, es.orbit_indices))

            def op():
                res = self.lrc.min_distance(es, budget=SCAN_BUDGET, threads=1)
                classes.append(res.enumerated)
                return key, distance_record(res)
            return op

        st = self.run_passes([op_for(self.es3), op_for(self.es7)], checker,
                             seconds, plan)
        st.units = sum(classes)
        return st


class Repair(Workload):
    """F_625, all 8 orbits: seeded simulations, then closed-loop ``recover``
    calls through ``cli.main`` on generated codewords and erasures."""

    name = "repair"

    def setup(self):
        self.fld, self.es = self.code(5, 4)
        self.profile = self.work_dir / "profile.json"
        code = self.cli.main(["construct", "--field", "5^4",
                              "--out", str(self.profile)])
        if code != 0:
            raise RuntimeError(f"construct exited {code}")

    def prepare(self):
        self.variant = self.seed % VARIANTS
        rng = random.Random(self.variant)
        es, fld = self.es, self.fld
        self.scenarios = [
            self.simulate.storage_scenario(es, fails, SIM_TRIALS,
                                           rng.randrange(2 ** 31), by_fiber)
            for fails, by_fiber in SIM_SCENARIOS]
        gm = self.lrc.generator_matrix(es)
        words = []
        for w in range(CODEWORDS):
            msg = [rng.randrange(fld.order) for _ in range(gm.k)]
            path = self.work_dir / f"codeword{w}.json"
            with open(path, "w") as fh:
                self.serialize.save_json(self.serialize.codeword_to_dict(
                    fld, self.lrc.encode(gm, msg)), fh)
            words.append(str(path))
        out = str(self.work_dir / "recovered.json")
        self.out_path = out
        self.cases = [
            ("recover", "--profile", str(self.profile), "--codeword",
             rng.choice(words), "--erase", erasures(rng, c % 4, es.b, es.r + 1),
             "--out", out)
            for c in range(RECOVER_POOL)]

    def run(self, checker, seconds=None, plan=None):
        """Simulation passes for a third of the time, then recover calls,
        which are the latency samples."""
        st = RunStats(self.kernel, self.cal_repeats, self.cal_period)
        started = time.perf_counter()

        def elapsed():
            return time.perf_counter() - started

        def more_sims():
            if plan is not None:
                return len(st.passes) < plan["sim_passes"]
            return len(st.passes) < SIM_MIN_PASSES or elapsed() < seconds / 3

        def more_calls():
            calls = len(st.samples)
            if plan is not None:
                return calls < plan["calls"]
            return calls < RECOVER_MIN_CALLS or elapsed() < seconds

        while more_sims():
            first = len(st.ops)
            for idx, scenario in enumerate(self.scenarios):
                report = st.time(self.simulate.run_simulation, scenario)
                st.kinds.append(f"sim/{idx}")
                buf = io.StringIO()
                self.serialize.save_json(report.to_dict(), buf)
                checker.check(f"repair/v{self.variant}/sim/{idx}",
                              digest(buf.getvalue()))
                st.units += scenario.trials
            st.passes.append((first, len(st.ops)))
        st.samples_from = len(st.ops)
        while more_calls():
            c = len(st.samples) % len(self.cases)
            code, text = st.time(self.call_cli, self.cases[c])
            st.kinds.append("recover")
            with open(self.out_path, "rb") as fh:
                written = fh.read()
            checker.check(f"repair/v{self.variant}/recover/{c}",
                          [code, digest(text), digest(written)])
        st.plan = {"sim_passes": len(st.passes), "calls": len(st.samples)}
        return st


def erasures(rng: random.Random, kind: int, b: int, rp1: int) -> str:
    """One erasure pattern as the CLI's ``l,i,j;...`` list.

    kind 0: 1-3 scattered symbols (mostly the vertical path); 1: a whole
    vertical fiber (horizontal path only); 2: a 2x2 rectangle, a stopping
    set that ends in exit 2; 3: 4-8 scattered symbols (multi-round peeling).
    """
    every = [(l, i, j) for l in range(b) for i in range(rp1)
             for j in range(rp1)]
    l = rng.randrange(b)
    if kind == 0:
        trips = rng.sample(every, rng.randint(1, 3))
    elif kind == 1:
        j = rng.randrange(rp1)
        trips = [(l, i, j) for i in range(rp1)]
    elif kind == 2:
        i1, i2 = rng.sample(range(rp1), 2)
        j1, j2 = rng.sample(range(rp1), 2)
        trips = [(l, i1, j1), (l, i1, j2), (l, i2, j1), (l, i2, j2)]
    else:
        trips = rng.sample(every, rng.randint(4, 8))
    return ";".join(f"{l},{i},{j}" for l, i, j in sorted(trips))


class Verify(Workload):
    """The fixed verify command list through ``cli.main``."""

    name = "verify"
    cal_repeats = 1         # commands take milliseconds

    def setup(self):
        for p, m in ((7, 2), (11, 2), (13, 2), (5, 4)):
            self.code(p, m)
        for p, r in ((7, 5), (13, 5), (17, 7), (11, 9)):
            self.construction.surface_params(self.gf.make_field(p, 1), r)

    def run(self, checker, seconds=None, plan=None):
        def op_for(argv):
            def op():
                return "verify/" + " ".join(argv), list(self.call_cli(argv))
            return op
        return self.run_passes([op_for(a) for a in VERIFY_COMMANDS], checker,
                               seconds, plan)


WORKLOADS = {w.name: w for w in (Table, Scan625, Repair, Verify)}


def percentile(values, q: int) -> float:
    """q-th percentile, linear between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]
