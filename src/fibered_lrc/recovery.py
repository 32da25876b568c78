"""Local erasure recovery along both fiber directions, plus peeling repair.

Every symbol sits in two disjoint size-r recovery sets: the rest of its
vertical fiber (fixed t, varying root) and the rest of its horizontal fiber
(fixed root, varying t).  Either set determines the symbol by Lagrange
interpolation; the multi-erasure repairer peels with whichever is available.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .construction import EvaluationSet, recovery_indices


class IncompleteRecoverySet(Exception):
    """A symbol needed for the requested recovery path is itself missing."""


class SingularSystem(Exception):
    """Interpolation nodes collide; impossible on a valid evaluation set."""


class Corrupted(ArithmeticError):
    """The r symbols of a vertical recovery set are not consistent with
    any codeword: at least one of them is corrupted, not merely erased."""


@dataclass(frozen=True)
class ErasurePattern:
    erased: frozenset  # (l, i, j) triples

    @classmethod
    def of(cls, triples) -> "ErasurePattern":
        return cls(frozenset(tuple(t) for t in triples))


@dataclass(frozen=True)
class RepairResult:
    codeword: tuple
    unrecovered: frozenset      # (l, i, j) triples left erased
    paths: dict                 # (l, i, j) -> "V" or "H"
    rounds: int


def _interp_eval(fld, nodes: Sequence[int], values: Sequence[int], z: int) -> int:
    """Evaluate at z the unique degree < len(nodes) interpolant of the data."""
    acc = 0
    for k, xk in enumerate(nodes):
        num, den = values[k], 1
        for xj in nodes[:k] + nodes[k + 1:]:
            if xj == xk:
                raise SingularSystem(f"repeated interpolation node {xk}")
            num = fld.mul(num, fld.sub(z, xj))
            den = fld.mul(den, fld.sub(xk, xj))
        acc = fld.add(acc, fld.div(num, den))
    return acc


def _gather(es: EvaluationSet, codeword, triples):
    symbols = []
    for l, i, j in triples:
        v = codeword[es.point_index(l, i, j)]
        if v is None:
            raise IncompleteRecoverySet(f"recovery symbol at {(l, i, j)} is erased")
        symbols.append(v)
    return symbols


def recover_vertical(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r roots of its fiber.

    f(x, t̄) has no constant term in x, so g(x) = f(x, t̄)/x has degree
    <= r-2 and the r known values overdetermine it by one node; the spare
    node is used as a consistency check, raising Corrupted when it fails.
    """
    fld = es.field
    l, i, j = target
    _, vertical = recovery_indices(es, l, i, j)
    symbols = _gather(es, codeword, vertical)
    nodes = [es.points[es.point_index(*trip)].x for trip in vertical]
    gvals = [fld.div(s, x) for s, x in zip(symbols, nodes)]
    check = _interp_eval(fld, nodes[:-1], gvals[:-1], nodes[-1])
    if check != gvals[-1]:
        raise Corrupted("vertical interpolation residual is nonzero")
    xt = es.points[es.point_index(l, i, j)].x
    return fld.mul(xt, _interp_eval(fld, nodes[:-1], gvals[:-1], xt))


def recover_horizontal(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r fibers of its root.

    f(x̄, t) has degree <= r-1 in t, so the r known values on the
    horizontal fiber determine it exactly.
    """
    fld = es.field
    l, i, j = target
    horizontal, _ = recovery_indices(es, l, i, j)
    symbols = _gather(es, codeword, horizontal)
    nodes = [es.points[es.point_index(*trip)].t for trip in horizontal]
    tt = es.points[es.point_index(l, i, j)].t
    return _interp_eval(fld, nodes, symbols, tt)


def repair(es: EvaluationSet, codeword, pattern: ErasurePattern) -> RepairResult:
    """Peel erasures until fixpoint.

    Each round scans erased positions in ascending point index and repairs
    every one whose vertical (preferred) or horizontal set is fully present
    in the round-start state; repairs apply at end of round, so results do
    not depend on within-round order.
    """
    work: list[Optional[int]] = list(codeword)
    erased = {es.point_index(*trip) for trip in pattern.erased}
    erased |= {idx for idx, v in enumerate(work) if v is None}
    for idx in erased:
        work[idx] = None

    paths: dict = {}
    rounds = 0
    while erased:
        snapshot = tuple(work)
        batch = []
        for idx in sorted(erased):
            pt = es.points[idx]
            trip = (pt.l, pt.i, pt.j)
            horizontal, vertical = recovery_indices(es, *trip)
            if all(snapshot[es.point_index(*v)] is not None for v in vertical):
                batch.append((idx, recover_vertical(es, snapshot, trip), "V"))
            elif all(snapshot[es.point_index(*h)] is not None for h in horizontal):
                batch.append((idx, recover_horizontal(es, snapshot, trip), "H"))
        if not batch:
            break
        for idx, value, path in batch:
            work[idx] = value
            pt = es.points[idx]
            paths[(pt.l, pt.i, pt.j)] = path
            erased.discard(idx)
        rounds += 1

    left = frozenset((es.points[idx].l, es.points[idx].i, es.points[idx].j)
                     for idx in erased)
    return RepairResult(tuple(work), left, paths, rounds)
