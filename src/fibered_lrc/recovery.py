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
and the vertical residual is one more.  `repair` peels one codeword (None
marks an erasure) round by round with whichever set is available;
`_peel_block` runs the same rounds on a block of words held as arrays, and
the simulator peels its trials with it.
"""

from dataclasses import dataclass
from functools import cache, reduce
from typing import Optional

import numpy as np

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
    if known and not (all(type(v) is int for v in known)
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


@cache
def _block_rows(fld: FieldSpec, roots: tuple[tuple[int, ...], ...], zeta: int,
                rp1: int) -> tuple[np.ndarray, ...]:
    """The α, β and horizontal rows of every (orbit, index), as (b, r+1,
    r+1), (b, r+1, r+1) and (r+1, r+1) arrays with the diagonal set to 0."""
    alpha, beta = np.array([[_vertical_rows(fld, rs, i) for i in range(rp1)]
                            for rs in roots]).transpose(2, 0, 1, 3)
    hrow = np.array([_horizontal_row(fld, zeta, rp1, j) for j in range(rp1)])
    for rows in (alpha, beta, hrow):     # cached: shared by every caller
        rows[..., range(rp1), range(rp1)] = 0
        rows.flags.writeable = False
    return alpha, beta, hrow


def _vdot(fld: FieldSpec, rows: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, r+1) element arrays."""
    terms = list(fld.vmul(rows, cs).T)
    acc = terms[0]
    for k in range(1, len(terms), 3):
        acc = fld.vsum(acc, *terms[k:k + 3])
    return acc


def _peel_block(es: EvaluationSet, work: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """`repair` on B words: a C-contiguous (B, n) int64 array of elements (erased ones
    are read only times 0) and a (B, n) erasure mask.  Fills the repairs
    into work and returns the (B, n) path code: 0 none, 1 V, 2 H.

    Rounds, the V-before-H choice and Corrupted are those of `repair`; on
    the (B, b, r+1, r+1) view a vertical fiber runs along axis 2 and a
    horizontal one along axis 3.
    """
    fld, rp1 = es.field, es.r + 1
    alpha, beta, hrow = _block_rows(fld, es.roots, es.params.zeta, rp1)
    shape = (len(work), es.b, rp1, rp1)
    work, erased = work.reshape(shape), erased.reshape(shape).copy()
    path = np.zeros(shape, dtype=np.int8)
    while True:
        v_ok = erased & (erased.sum(axis=2, keepdims=True) == 1)
        h_ok = erased & ~v_ok & (erased.sum(axis=3, keepdims=True) == 1)
        if not (v_ok.any() or h_ok.any()):
            return path.reshape(len(work), -1)
        t, l, i, j = np.nonzero(v_ok)
        fiber = work[t, l, :, j]
        if _vdot(fld, beta[l, i], fiber).any():
            raise Corrupted("vertical interpolation residual is nonzero")
        v_vals = _vdot(fld, alpha[l, i], fiber)
        th, lh, ih, jh = np.nonzero(h_ok)
        h_vals = _vdot(fld, hrow[jh], work[th, lh, ih, :])
        work[t, l, i, j], work[th, lh, ih, jh] = v_vals, h_vals
        path[v_ok], path[h_ok] = 1, 2
        erased &= ~(v_ok | h_ok)
