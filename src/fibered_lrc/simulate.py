"""Deterministic storage-failure repair simulator.

Each trial encodes a random message, knocks out a set of storage nodes,
and peels the surviving symbols with both recovery sets.  Randomness comes
from numpy's PCG64 stream seeded per scenario, so a fixed seed gives a
byte-identical report.  Each trial draws its message and then its failed
nodes, in trial order, into one block of BLOCK trials, and a (nodes,
symbols per node) table marks the block's erasures in one assignment.  A
block is encoded by one float64 (BLAS) product, exact below 2^53, and
peeled by one `recovery._peel_block` call, so working memory is one
block's (the report keeps two counts per trial); each repaired symbol is
checked against the encoded one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .construction import EvaluationSet
from .lrc_code import _encode_block, generator_matrix
from .recovery import _peel_block
from .serialize import SCHEMA

BLOCK = 64      # trials per encode product: a fixed memory bound


class BadScenario(ValueError):
    """Scenario parameters are inconsistent with the code profile."""


class RepairMismatch(ArithmeticError):
    """A repaired symbol differs from the symbol that was encoded."""


@dataclass(frozen=True)
class StorageScenario:
    es: EvaluationSet
    failures: int            # simultaneous node failures per trial
    trials: int
    seed: int
    node_of: tuple[int, ...]  # symbol index -> node id

    @property
    def node_count(self) -> int:
        return len(set(self.node_of))


def storage_scenario(es: EvaluationSet, failures: int, trials: int, seed: int,
                     group_by_fiber: bool = False) -> StorageScenario:
    """One symbol per node by default; group_by_fiber co-locates each
    vertical fiber (r+1 symbols) on a single node."""
    if group_by_fiber:
        # a node per vertical fiber, named by the fiber's first position
        node_of = tuple(es.fibers(pos)[1].start for pos in range(es.n))
    else:
        node_of = tuple(range(es.n))
    nodes = len(set(node_of))
    if not 0 <= failures <= nodes:
        raise BadScenario(f"failures {failures} outside [0, {nodes}]")
    if trials < 1:
        raise BadScenario(f"trials {trials} < 1")
    if seed < 0:
        raise BadScenario(f"seed {seed} < 0")
    return StorageScenario(es, failures, trials, seed, node_of)


@dataclass(frozen=True)
class SimReport:
    failures: int
    trials: int
    seed: int
    nodes: int
    repaired_per_trial: tuple[int, ...]
    unrecovered_per_trial: tuple[int, ...]
    success_rate: float          # fraction of trials fully repaired
    reads_per_repair: int        # symbols read per repaired symbol (= r)
    path_histogram: dict         # {"V": count, "H": count} across all trials

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "kind": "sim-report", **asdict(self)}


def run_simulation(scenario: StorageScenario) -> SimReport:
    es = scenario.es
    fld = es.field
    gm = generator_matrix(es)
    rng = np.random.Generator(np.random.PCG64(scenario.seed))
    nodes = scenario.node_count

    symbols_on = {}
    for pos, node in enumerate(scenario.node_of):
        symbols_on.setdefault(node, []).append(pos)
    # row u: the u-th node's positions (ids sorted); a repeated first pads it harmlessly
    width = max(map(len, symbols_on.values()))
    table = np.array([at + at[:1] * (width - len(at)) for _, at in sorted(symbols_on.items())])

    repaired_counts, unrecovered_counts = [], []
    hist = {"V": 0, "H": 0}
    msgs = np.empty((min(BLOCK, scenario.trials), gm.k), dtype=np.int64)
    picks = np.empty((len(msgs), scenario.failures), dtype=np.int64)
    for start in range(0, scenario.trials, BLOCK):
        count = min(BLOCK, scenario.trials - start)
        for trial in range(count):
            msgs[trial] = rng.integers(0, fld.order, size=gm.k)
            picks[trial] = rng.choice(nodes, size=scenario.failures, replace=False)
        cws = _encode_block(gm, msgs[:count])
        lost = table[picks[:count]].reshape(count, -1)   # by trial, in pick order
        erased = np.zeros(cws.shape, dtype=bool)
        erased[np.arange(count)[:, None], lost] = True
        work = np.where(erased, 0, cws)
        path = _peel_block(es, work, erased)
        wrong = (path > 0) & (work != cws)
        if wrong.any():
            trial = int(wrong.any(axis=1).argmax())
            pos = next(at for at in lost[trial] if wrong[trial, at])
            raise RepairMismatch(f"symbol at position {pos} repaired to a wrong value")
        hist["V"] += int(np.count_nonzero(path == 1))
        hist["H"] += int(np.count_nonzero(path == 2))
        repaired_counts += np.count_nonzero(path, axis=1).tolist()
        unrecovered_counts += np.count_nonzero(erased & (path == 0), axis=1).tolist()

    successes = sum(1 for u in unrecovered_counts if u == 0)
    return SimReport(
        failures=scenario.failures,
        trials=scenario.trials,
        seed=scenario.seed,
        nodes=nodes,
        repaired_per_trial=tuple(repaired_counts),
        unrecovered_per_trial=tuple(unrecovered_counts),
        success_rate=successes / scenario.trials,
        reads_per_repair=es.r,
        path_histogram=hist,
    )
