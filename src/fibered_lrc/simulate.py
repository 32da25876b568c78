"""Deterministic storage-failure repair simulator.

Each trial encodes a random message, knocks out a set of storage nodes,
and peels the surviving symbols with both recovery sets.  The draws read
PCG64's raw words (seeded per scenario) and are exactly those of
``Generator.integers`` and ``choice``, so a seed fixes the report byte for
byte through PCG64's raw stream alone, which NEP 19 keeps stable.  A block
of BLOCK trials draws as arrays (a trial that meets a rejected word draws
again one word at a time), encodes in chunks of float64 (BLAS)
products, exact below 2^53, into one buffer that every block of the run
reuses, and is peeled in place by one `recovery._peel_block` call, so
working memory is one block's (the report keeps two counts per trial);
each repaired symbol is checked against the encoded one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .construction import EvaluationSet
from .lrc_code import GeneratorMatrix, _encode_block, generator_matrix
from .recovery import _peel_block
from .serialize import SCHEMA

BLOCK = 128     # trials per block: a fixed memory bound (at 256 the peel faults pages)


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

    @cached_property
    def gm(self) -> GeneratorMatrix:   # built on first use; not a field
        return generator_matrix(self.es)


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


class _Words:
    """PCG64's outputs as 32-bit words, low half first, as ``Generator``
    reads them; ``buf`` holds the words drawn and not yet read."""

    def __init__(self, seed: int):
        self.raw, self.buf = np.random.PCG64(seed).random_raw, np.empty(0, np.uint64)

    def peek(self, n: int) -> np.ndarray:   # the next n words, as uint64
        if n > len(self.buf):
            more = self.raw((n - len(self.buf) + 1) // 2).astype("<u8").view("<u4")
            self.buf = np.concatenate((self.buf, more))
        return self.buf[:n]

    def __iter__(self):   # read one word at a time
        while True:
            for word in self.peek(256).tolist():
                self.buf = self.buf[1:]
                yield word


def _bounded(words, bound: int) -> int:
    """A draw in [0, bound), 2 <= bound <= 2^32, by Lemire's multiply-shift:
    a word whose product has a low half below 2^32 mod bound is rejected."""
    threshold = (1 << 32) % bound
    while (m := next(words) * bound) & 0xFFFFFFFF < threshold:
        pass
    return m >> 32


def _floyd(draws, nodes: int, f: int, taken) -> np.ndarray:
    """``choice``'s picks from each row of draws: Floyd's sample, a repeat
    found in the (B, nodes) mask ``taken`` replaced by j, then shuffled."""
    rows, cols = np.arange(len(draws)), iter(draws.T)
    picks = np.empty((len(draws), f), dtype=np.int64)
    for c, j in enumerate(range(nodes - f, nodes)):
        v = next(cols) if j else 0
        picks[:, c] = np.where(taken[rows, v], j, v)
        taken[rows, picks[:, c]] = True
    taken[rows[:, None], picks] = False   # clear for the next block
    for i in range(f - 1, 0, -1):
        j = next(cols)
        held = picks[rows, j]
        picks[rows, j], picks[:, i] = picks[:, i], held
    return picks


def _tail_shuffle(row: list, k: int, nodes: int, f: int) -> list:
    """A trial's message, then the last f of arange(nodes) after its swaps
    (``choice``'s tail shuffle); only the swapped entries are kept."""
    moved = {}
    for i, j in zip(range(nodes - 1, 0, -1), row[k:]):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return row[:k] + [moved.get(i, i) for i in range(nodes - f, nodes)]


def _draws(seed: int, trials: int, k: int, q: int, nodes: int, f: int):
    """Each block's (B, k) messages and (B, f) picks: per trial, those of
    ``integers(0, q, size=k)`` then ``choice(nodes, size=f, replace=False)``.
    Lemire's rejections are rare below 2^32, so the trials before the first
    rejected word are read as arrays, that trial one draw at a time, and so
    on from the next; the tail shuffle draws one at a time throughout."""
    words, tail = _Words(seed), nodes > 10000 and f > nodes // 50
    # a trial's bounds: q per message symbol; then i + 1 for the tail shuffle's
    # i = nodes-1 .. lo, or j + 1 for Floyd's j in [lo, nodes) (j = 0 draws
    # nothing) and i + 1 for the shuffle's i = f-1 .. 1
    lo = max(nodes - f, 1)
    span = np.arange(nodes, lo, -1) if tail else np.r_[lo + 1:nodes + 1, f:1:-1]
    bounds = np.concatenate((np.full(k, q), span)).astype(np.uint64)
    threshold, order = (1 << 32) % bounds, bounds.tolist()
    taken = np.zeros((min(BLOCK, trials), 0 if tail else nodes), dtype=bool)
    for start in range(0, trials, BLOCK):
        left, rows = min(BLOCK, trials - start), []
        while left:
            ok = 0
            if not tail:   # the trials before the first rejected word, as arrays
                m = words.peek(left * len(order)).reshape(left, -1) * bounds
                low = (m & 0xFFFFFFFF) < threshold
                ok = int(low.argmax()) // len(order) if low.any() else left
                words.buf = words.buf[ok * len(order):]
                rows.append((m[:ok] >> 32).astype(np.int64))
            if ok < left:   # then that trial, one draw at a time
                it = iter(words)
                row = [_bounded(it, b) for b in order]
                rows.append([_tail_shuffle(row, k, nodes, f) if tail else row])
                ok += 1
            left -= ok
        vals = np.concatenate(rows, dtype=np.int64)
        yield vals[:, :k], vals[:, k:] if tail else _floyd(vals[:, k:], nodes, f, taken)


def run_simulation(scenario: StorageScenario) -> SimReport:
    es = scenario.es
    fld = es.field
    gm = scenario.gm
    nodes = scenario.node_count

    symbols_on = {}
    for pos, node in enumerate(scenario.node_of):
        symbols_on.setdefault(node, []).append(pos)
    # row u: the u-th node's positions (ids sorted); a repeated first pads it harmlessly
    width = max(map(len, symbols_on.values()))
    table = np.array([at + at[:1] * (width - len(at)) for _, at in sorted(symbols_on.items())])

    repaired_counts, unrecovered_counts = [], []
    hist = {"V": 0, "H": 0}
    buf = np.empty((min(BLOCK, scenario.trials), es.n), dtype=np.int64)
    for msgs, picks in _draws(scenario.seed, scenario.trials, gm.k, fld.order,
                              nodes, scenario.failures):
        count = len(msgs)
        cws = _encode_block(gm, msgs, buf[:count])
        lost = table[picks].reshape(count, -1)   # by trial, in pick order
        erased = np.zeros(cws.shape, dtype=bool)
        erased[np.arange(count)[:, None], lost] = True
        gone, flat = np.flatnonzero(erased), cws.reshape(-1)
        sent = flat[gone]   # peeled in place, and checked against these
        flat[gone] = 0
        path = _peel_block(es, cws, erased)
        wrong = path > 0
        wrong.reshape(-1)[gone] &= flat[gone] != sent
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
