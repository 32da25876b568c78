"""Local erasure recovery along both fiber directions, plus peeling repair.

Every symbol sits in two disjoint size-r recovery sets: the rest of its
vertical fiber (fixed t, varying root) and the rest of its horizontal fiber
(fixed root, varying t); `EvaluationSet.fibers` gives both fibers as
positions.  Each fiber has fixed parity checks.  On a vertical fiber
f(x, t̄) = x·g(x) with deg g <= r-2, so the symbols c_i at the roots x_i
satisfy Σ w_i·c_i = Σ w_i·x_i·c_i = 0 with
w_i = 1/(x_i·∏_(k≠i)(x_i - x_k)).  On a horizontal fiber deg_t f <= r-1
and t = ζ^j·t̄, so Σ_j ζ^j·c_j = 0.  Either set determines the symbol by
its checks, solved once into check rows cached per field, fiber roots and
index: a recovery is the dot product of a row with the fiber's symbols,
and the vertical residual is one more.  A codeword marks an erased symbol
by None, and the multi-erasure repairer peels with whichever set is
available.
"""

from dataclasses import dataclass
from functools import cache, reduce
from itertools import repeat
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
def _vertical_rows(fld: FieldSpec, roots: tuple[int, ...], i: int):
    """(α, β) for root i of a vertical fiber: c_i = Σ_(k≠i) α_k·c_k, and
    Σ_(k≠i) β_k·c_k = 0 on every codeword.

    The first check gives α_k = -w_k/w_i; eliminating c_i from the second
    gives β_k = w_k·(x_k - x_i).
    """
    w = [fld.inv(reduce(fld.mul, (fld.sub(xk, x) for x in roots if x != xk), xk))
         for xk in roots]
    return (tuple(fld.neg(fld.div(wk, w[i])) for wk in w),
            tuple(fld.mul(wk, fld.sub(xk, roots[i])) for wk, xk in zip(w, roots)))


@cache
def _horizontal_row(fld: FieldSpec, zeta: int, rp1: int, j: int) -> tuple[int, ...]:
    """-ζ^(k-j), so that c_j = Σ_(k≠j) row_k·c_k."""
    return tuple(fld.neg(fld.pow(zeta, k - j)) for k in range(rp1))


def _fiber_symbols(codeword, fiber, skip: int) -> list[int]:
    """The symbols on fiber, the skip-th read as 0 (its row entry drops out)."""
    cs = [codeword[pos] for pos in fiber]
    cs[skip] = 0
    if None in cs:
        raise IncompleteRecoverySet(
            f"recovery symbol at position {fiber[cs.index(None)]} is erased")
    return cs


def _dot(fld: FieldSpec, row, cs) -> int:
    return reduce(fld.add, map(fld.mul, row, cs))


def _vertical(es: EvaluationSet, codeword, pos: int, fiber: range) -> int:
    """The symbol at pos from the rest of its vertical fiber."""
    i = fiber.index(pos)
    alpha, beta = _vertical_rows(es.field, es.orbits[es.points[pos].l].roots, i)
    cs = _fiber_symbols(codeword, fiber, i)
    if _dot(es.field, beta, cs):
        raise Corrupted("vertical interpolation residual is nonzero")
    return _dot(es.field, alpha, cs)


def _horizontal(es: EvaluationSet, codeword, pos: int, fiber: range) -> int:
    """The symbol at pos from the rest of its horizontal fiber."""
    j = fiber.index(pos)
    row = _horizontal_row(es.field, es.params.zeta, len(fiber), j)
    return _dot(es.field, row, _fiber_symbols(codeword, fiber, j))


def recover_vertical(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r roots of its fiber.

    The r known symbols lie on some x·g(x), deg g <= r-2, iff the residual
    check holds; otherwise one of them is corrupted and Corrupted is raised.
    """
    pos = es.point_index(*target)
    return _vertical(es, codeword, pos, es.fibers(pos)[1])


def recover_horizontal(es: EvaluationSet, codeword, target) -> int:
    """Recover the symbol at target from the other r fibers of its root.

    The check has no spare: any r values complete to a polynomial of
    degree <= r-1 in t.
    """
    pos = es.point_index(*target)
    return _horizontal(es, codeword, pos, es.fibers(pos)[0])


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
    known = [v for v in work if v is not None]
    if known and not (all(map(isinstance, known, repeat(int)))
                      and min(known) >= 0 and max(known) < q):
        raise ValueError(f"codeword symbols must be None or ints in [0, {q})")
    erased = [idx for idx, v in enumerate(work) if v is None]

    def trip(idx):
        pt = es.points[idx]
        return pt.l, pt.i, pt.j

    paths: dict = {}
    rounds = 0
    while erased:
        # work changes only after the scan, so it is the round-start state
        batch = []
        for idx in erased:
            horizontal, vertical = es.fibers(idx)
            if [work[k] for k in vertical].count(None) == 1:
                batch.append((idx, _vertical(es, work, idx, vertical), "V"))
            elif [work[k] for k in horizontal].count(None) == 1:
                batch.append((idx, _horizontal(es, work, idx, horizontal), "H"))
        if not batch:
            break
        for idx, value, path in batch:
            work[idx] = value
            paths[trip(idx)] = path
        erased = [idx for idx in erased if work[idx] is None]
        rounds += 1

    return RepairResult(tuple(work), frozenset(map(trip, erased)), paths, rounds)
