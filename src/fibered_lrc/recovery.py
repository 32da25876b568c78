"""Local erasure recovery along both fiber directions, plus peeling repair.

Every symbol sits in two disjoint size-r recovery sets: the rest of its
vertical fiber (fixed t, varying root) and the rest of its horizontal fiber
(fixed root, varying t); `EvaluationSet.fibers` gives both fibers as
positions.  Each fiber has fixed parity checks.  On a vertical fiber
f(x, t̄) = x·g(x) with deg g <= r-2, so the symbols c_i at the roots x_i
satisfy Σ w_i·c_i = Σ w_i·x_i·c_i = 0 with
w_i = 1/(x_i·∏_(k≠i)(x_i - x_k)).  On a horizontal fiber deg_t f <= r-1
and t = ζ^j·t̄, so Σ_j ζ^j·c_j = 0.  Either set determines the symbol by
its checks.  A codeword marks an erased symbol by None, and the
multi-erasure repairer peels with whichever set is available.
"""

from dataclasses import dataclass
from functools import cache, reduce
from typing import Optional

from .construction import EvaluationSet
from .gf import FieldSpec
from .lrc_code import LengthMismatch


class IncompleteRecoverySet(Exception):
    """A symbol needed for the requested recovery path is itself missing."""


class Corrupted(ArithmeticError):
    """The r symbols of a vertical recovery set are not consistent with
    any codeword: at least one of them is corrupted, not merely erased."""


@dataclass(frozen=True)
class RepairResult:
    codeword: tuple
    unrecovered: frozenset      # (l, i, j) triples left erased
    paths: dict                 # (l, i, j) -> "V" or "H"
    rounds: int


@cache
def _vertical_weights(fld: FieldSpec, roots: tuple[int, ...]) -> tuple[int, ...]:
    """w_i = 1/(x_i·∏_(k≠i)(x_i - x_k)) for the roots x_i of one fiber."""
    return tuple(fld.inv(reduce(fld.mul, (fld.sub(xi, xk) for xk in roots
                                          if xk != xi), xi))
                 for xi in roots)


def _others(codeword, fiber, skip: int):
    """(k, symbol) for the k-th position of fiber, every k but skip."""
    pairs = [(k, codeword[pos]) for k, pos in enumerate(fiber) if k != skip]
    for k, c in pairs:
        if c is None:
            raise IncompleteRecoverySet(
                f"recovery symbol at position {fiber[k]} is erased")
    return pairs


def recover_vertical(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r roots of its fiber.

    The first check gives c_i = -(Σ_(k≠i) w_k·c_k)/w_i.  Eliminating c_i
    from the second leaves Σ_(k≠i) w_k·(x_k - x_i)·c_k = 0, which holds iff
    the r known symbols lie on some x·g(x), deg g <= r-2; otherwise one of
    them is corrupted and Corrupted is raised.
    """
    fld = es.field
    l, i, j = target
    _, vertical = es.fibers(es.point_index(l, i, j))
    roots = es.orbits[l].roots
    w = _vertical_weights(fld, roots)
    acc = residual = 0
    for k, c in _others(codeword, vertical, i):
        wc = fld.mul(w[k], c)
        acc = fld.add(acc, wc)
        residual = fld.add(residual, fld.mul(wc, fld.sub(roots[k], roots[i])))
    if residual:
        raise Corrupted("vertical interpolation residual is nonzero")
    return fld.neg(fld.div(acc, w[i]))


def recover_horizontal(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r fibers of its root.

    Σ_j ζ^j·c_j = 0 gives c_j = -Σ_(k≠j) ζ^(k-j)·c_k.  The check has no
    spare: any r values complete to a polynomial of degree <= r-1 in t.
    """
    fld = es.field
    l, i, j = target
    horizontal, _ = es.fibers(es.point_index(l, i, j))
    zeta = es.params.zeta
    acc = 0
    for k, c in _others(codeword, horizontal, j):
        acc = fld.add(acc, fld.mul(fld.pow(zeta, k - j), c))
    return fld.neg(acc)


def repair(es: EvaluationSet, codeword) -> RepairResult:
    """Peel the erased (None) symbols of codeword until fixpoint.

    Each round scans erased positions in ascending order and repairs every
    one whose vertical (preferred) or horizontal fiber has no other None in
    the round-start state; repairs apply at end of round, so results do
    not depend on within-round order.  Every other symbol must be an int
    in [0, q).
    """
    work: list[Optional[int]] = list(codeword)
    if len(work) != es.n:
        raise LengthMismatch(f"codeword length {len(work)} != n={es.n}")
    q = es.field.order
    if not all(v is None or isinstance(v, int) and 0 <= v < q for v in work):
        raise ValueError(f"codeword symbols must be None or ints in [0, {q})")
    erased = {idx for idx, v in enumerate(work) if v is None}

    def trip(idx):
        pt = es.points[idx]
        return pt.l, pt.i, pt.j

    paths: dict = {}
    rounds = 0
    while erased:
        snapshot = tuple(work)
        batch = []
        for idx in sorted(erased):
            horizontal, vertical = es.fibers(idx)
            if [snapshot[k] for k in vertical].count(None) == 1:
                batch.append((idx, recover_vertical(es, snapshot, trip(idx)), "V"))
            elif [snapshot[k] for k in horizontal].count(None) == 1:
                batch.append((idx, recover_horizontal(es, snapshot, trip(idx)), "H"))
        if not batch:
            break
        for idx, value, path in batch:
            work[idx] = value
            paths[trip(idx)] = path
            erased.discard(idx)
        rounds += 1

    return RepairResult(tuple(work), frozenset(map(trip, erased)), paths, rounds)
