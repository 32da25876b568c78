"""Local erasure recovery along both fiber directions, plus peeling repair.

Every symbol sits in two disjoint size-r recovery sets: the rest of its
vertical fiber (fixed t, varying root) and the rest of its horizontal fiber
(fixed root, varying t); `EvaluationSet.fibers` gives both as positions.
A recovery is the dot product of a cached check row (`_fiber_rows`) with
the fiber's symbols.  `repair` peels one codeword (None marks an erasure)
round by round; `_peel_block` runs the same rounds on a block of words as
arrays, for the simulator.  Each is the faster on its side of bench
`repair` (2-vCPU VM): as a block of one word, `repair` raised `recover`'s
`op_p50_rel` 0.706 → 0.818 cal (6 pairs); on a simulation pass's 600
trials it takes 28 ms, against about 1.7 ms for `_peel_block`.
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
def _fiber_rows(fld: FieldSpec, roots: tuple[int, ...], zeta: int):
    """The check rows of one orbit's fibers, as tuples of ints.

    A vertical fiber's symbols c_k at the roots x_k satisfy
    Σ w_k·c_k = Σ w_k·x_k·c_k = 0, w_k = 1/(x_k·∏_(l≠k)(x_k - x_l)).  For
    root i the first gives the value row α_k = -w_k/w_i (c_i = Σ α_k·c_k),
    and the second, with c_i eliminated, the spare check β_k = w_k·(x_k - x_i)
    (Σ β_k·c_k = 0).  A horizontal fiber has Σ_k ζ^k·c_k = 0: index j gets
    the row -ζ^(k-j).  Returns the (β, α) pairs by root and the horizontal
    rows by index; every own entry is 0, so the solved symbol drops out.
    """
    w = [fld.inv(reduce(fld.mul, (fld.sub(xk, x) for x in roots if x != xk), xk))
         for xk in roots]
    own = range(len(roots))
    vertical = tuple((tuple(fld.mul(w[k], fld.sub(roots[k], roots[i])) for k in own),
                      tuple(0 if k == i else fld.neg(fld.div(w[k], w[i])) for k in own))
                     for i in own)
    return vertical, tuple(tuple(0 if k == j else fld.neg(fld.pow(zeta, k - j))
                                 for k in own) for j in own)


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


def _rows(es: EvaluationSet, pos: int):
    orbit = es.orbits[pos // es.params.n_per_orbit]
    return _fiber_rows(es.field, orbit.roots, es.params.zeta)


def _vertical(es: EvaluationSet, codeword, pos: int, fiber: range) -> int:
    """The symbol at pos from the rest of its vertical fiber."""
    i = fiber.index(pos)
    beta, alpha = _rows(es, pos)[0][i]
    cs = _fiber_symbols(codeword, fiber, i)
    if _dot(es.field, beta, cs):
        raise Corrupted("vertical interpolation residual is nonzero")
    return _dot(es.field, alpha, cs)


def _horizontal(es: EvaluationSet, codeword, pos: int, fiber: range) -> int:
    """The symbol at pos from the rest of its horizontal fiber."""
    j = fiber.index(pos)
    return _dot(es.field, _rows(es, pos)[1][j], _fiber_symbols(codeword, fiber, j))


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
            paths[es.triple(idx)] = path
        erased = [idx for idx in erased if work[idx] is None]
        rounds += 1

    return RepairResult(tuple(work), frozenset(map(es.triple, erased)), paths, rounds)


@cache
def _block_rows(fld: FieldSpec, roots: tuple[tuple[int, ...], ...], zeta: int):
    """The `_fiber_rows` of every orbit, stacked read-only: the (β, α) pairs
    as a (b, r+1, 2, r+1) array and the horizontal rows as (r+1, r+1)."""
    tables = [_fiber_rows(fld, rs, zeta) for rs in roots]
    pairs, hrow = np.array([v for v, _ in tables]), np.array(tables[0][1])
    for rows in (pairs, hrow):     # cached: shared by every caller
        rows.flags.writeable = False
    return pairs, hrow


def _vdot(fld: FieldSpec, rows: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of two broadcasting element arrays."""
    terms = np.moveaxis(fld.vmul(rows, cs), -1, 0)
    acc = terms[0]
    for k in range(1, len(terms), 3):
        acc = fld.vsum(acc, *terms[k:k + 3])
    return acc


def _peel_block(es: EvaluationSet, work: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """`repair` on B words: a C-contiguous (B, n) int64 array of elements (erased ones
    are read only times 0) and a (B, n) erasure mask.  Fills the repairs
    into work and returns the (B, n) path code: 0 none, 1 V, 2 H.

    Rounds, the V-before-H choice and Corrupted are those of `repair`.  An
    erasure is a flat index ((word·b + l)·(r+1) + i)·(r+1) + j, and a round
    counts each fiber's erasures with one bincount per direction.
    """
    fld, rp1 = es.field, es.r + 1
    pairs, hrow = _block_rows(fld, es.roots, es.params.zeta)
    flat, lost = work.reshape(-1), np.flatnonzero(erased)
    path, steps = np.zeros(flat.size, dtype=np.int8), np.arange(rp1)
    fibers = flat.size // rp1
    while len(lost):
        row, j = np.divmod(lost, rp1)           # horizontal fiber, column
        col = row - row % rp1 + j               # vertical fiber (word, l, j)
        v = np.bincount(col, minlength=fibers)[col] == 1
        h = ~v & (np.bincount(row, minlength=fibers)[row] == 1)
        fv, fh = lost[v], lost[h]
        if not (len(fv) or len(fh)):
            break
        if len(fv):
            block, i = np.divmod(row[v], rp1)   # (word, l) and root
            cs = flat[(fv - i * rp1)[:, None] + rp1 * steps]
            residual, value = _vdot(fld, pairs[block % es.b, i], cs[:, None]).T
            if residual.any():
                raise Corrupted("vertical interpolation residual is nonzero")
            flat[fv] = value
        if len(fh):
            flat[fh] = _vdot(fld, hrow[j[h]], flat[(fh - j[h])[:, None] + steps])
        path[fv], path[fh] = 1, 2
        lost = lost[~(v | h)]
    return path.reshape(len(work), -1)
