"""Evaluation code on the fibered surface: basis, encoder, bounds, exact distance.

A message is a bivariate polynomial f(x, t), and its zeros on the vertical
fiber at t̄ are the fiber roots x̄ with f(x̄, t̄) = 0: all r+1 of them when
every coefficient polynomial vanishes at t̄.  For r = 3,
f = x·a(t) + x²(u + v·t) has five coefficients, and the exact distance
counts zeros on the pencils of messages through three points on distinct
fibers.  t -> ζt (ζ⁴ = 1) maps the code onto itself, and so does the
Frobenius power (x, t) -> (x^(p^k), t^(p^k)) when it keeps the chosen
orbits; the best messages form a set closed under the group G these
generate, and one fiber triple per G-orbit inside one half of a G-closed
split of the fibers is searched with the images of its best messages.  A
point on a pick's own fiber t̄ lies on the pencil's member of key -1/t̄
whatever the picks, so each member is scored in closed form there and
by log-difference keys, sorted row by row, at the n - 3(r + 1) points
off the triple's fibers: about C(n, 3)·(n - 3(r + 1))/16 work when the
halves balance, whatever q is; a block that cannot reach the best found
so far builds no witness.  A budgeted search instead scans message
classes in lex order (first nonzero coordinate = 1), each prefix a(t) on
its n point-lines in the (u, v) plane, where two lines cross at a linear
form in (a0, a1, a2), counted once, on the line of lesser t̄, through the
pairs of crossings that meet on one line, so no array holds n·q
counters; it returns the best of the first `budget` classes, in whole
chunks.

Encoding is F_p-linear: an element is the digit vector of Σ c_i·X^i, so
the generator matrix, of rank k checked over F_q, expands to a (k·m) x
(n·m) matrix over F_p, and a block of messages encodes by float64 (BLAS)
matrix products mod p, 2^13 // (n·m) messages each, so that no temporary
passes 64 KB; they are exact because `generator_matrix` refuses a code
whose k·m digit products could sum past 2^53.  `encode`, the generic
search (r > 3) and `simulate.run_simulation` all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .construction import (  # BadLocality is re-exported for importers
    BadLocality,
    EvaluationSet,
    check_locality,
)
from .gf import FieldSpec, digits
from .poly import UniPoly, poly, x_poly


class RankDeficient(AssertionError):
    """Generator matrix rank below k; signals a construction bug."""


class LengthMismatch(ValueError):
    """Message or codeword of the wrong length."""


class NotSingleOrbit(ValueError):
    """Operation defined only for b = 1 evaluation sets."""


class BoundsViolation(AssertionError):
    """A profile breaks a rule of its own: its shape, bounds or witness.

    An AssertionError, as a failed invariant, so that profile readers and
    the CLI report it with exit code 2.
    """


def in_basis(i: int, j: int, r: int) -> bool:
    """Is x^i t^j a message monomial?  1 <= i <= r-2 and 0 <= j <= r-1, or
    i = r-1 and j <= r-2: a range test, without listing the r^2 - r - 1."""
    check_locality(r)
    return 1 <= i <= r - 2 and 0 <= j <= r - 1 or i == r - 1 and 0 <= j <= r - 2


@cache
def basis(r: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (i, j), sorted, of the monomials x^i t^j spanning the
    messages: those that pass `in_basis`."""
    check_locality(r)
    return tuple((i, j) for i in range(1, r) for j in range(r) if in_basis(i, j, r))


def basis_vertices(r: int) -> tuple[tuple[int, int], ...]:
    """The corners of the convex hull of basis(r): a linear form in (i, j)
    takes its max and min over the basis at one of them."""
    check_locality(r)
    return ((1, 0), (1, r - 1), (r - 2, r - 1), (r - 1, r - 2), (r - 1, 0))


@dataclass(frozen=True, slots=True)
class GeneratorMatrix:
    """k x n matrix of basis monomials evaluated at the points, of rank k.

    over_fp is its expansion over F_p, a (k·m) x (n·m) array: row κ·m + d
    holds the base-p digits of rows[κ] times the element p^d = X^d, so a
    message's digit vector times over_fp, mod p, is its codeword's digits.
    It is float64, which holds F_p digits exactly, so the product runs in BLAS.
    """

    es: EvaluationSet
    rows: tuple[tuple[int, ...], ...]
    over_fp: np.ndarray = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.es.n


_FLOAT_EXACT = 2**53 - 1  # float64 holds every integer up to this one


def generator_matrix(es: EvaluationSet) -> GeneratorMatrix:
    fld, mons = es.field, np.asarray(basis(es.r))
    k, m = len(mons), fld.m
    # a codeword digit sums k·m digit products; _encode_block needs it exact
    if k * m * (fld.p - 1) ** 2 > _FLOAT_EXACT:
        raise ValueError(f"k·m = {k * m} digit products of up to (p - 1)^2 "
                         f"sum past 2^53 over {fld.label}: float64 is inexact")
    LOG, EXP = (fld.np_tables()[name] for name in ("LOG", "EXP"))
    # x and t are nonzero at every point (build_evaluation_set checks it),
    # so x^i·t^j = EXP[(i·log x + j·log t) mod (q - 1)]
    rows = EXP[mons @ LOG[es.xyt[[0, 2]]] % (fld.order - 1)]
    # rank k over F_q is rank k·m of over_fp over F_p
    if _rank(fld, rows) != k:
        raise RankDeficient(f"generator matrix rank below k={k} for {fld.label}")
    # row κ·m + d holds the digits of rows[κ] times the element p^d = X^d
    shifted = fld.vmul(rows[:, None], fld.p ** np.arange(m)[:, None])
    over_fp = digits(shifted, fld.p, m).reshape(k * m, es.n * m).astype(np.float64)
    return GeneratorMatrix(es, tuple(map(tuple, rows.tolist())), over_fp)


def _rank(fld: FieldSpec, mat: np.ndarray) -> int:
    """Rank over F_q of a matrix of elements, by elimination to row echelon."""
    NEG, INV = (fld.np_tables()[name] for name in ("NEG", "INV"))
    mat = np.array(mat, dtype=np.int64)
    rank = 0
    for col in range(mat.shape[1]):
        piv = rank + np.flatnonzero(mat[rank:, col])
        if len(piv):
            mat[[rank, piv[0]]] = mat[[piv[0], rank]]
            factor = fld.vmul(mat[rank + 1:, col], INV[mat[rank, col]])
            mat[rank + 1:] = fld.vsum(
                mat[rank + 1:], NEG[fld.vmul(factor[:, None], mat[rank])])
            rank += 1
            if rank == len(mat):
                break
    return rank


def _encode_block(gm: GeneratorMatrix, msgs, out=None) -> np.ndarray:
    """Codewords of a (B, k) array of messages, as a (B, n) int64 array
    (written into `out` when given), a few messages at a time so that no
    temporary passes 64 KB."""
    fld = gm.es.field
    p, m = fld.p, fld.m
    out = np.empty((len(msgs), gm.n), dtype=np.int64) if out is None else out
    rows = max(1, 2**13 // (gm.n * m))   # k <= n, so a chunk's digits fit too
    for at in range(0, len(msgs), rows):
        # exact: generator_matrix keeps every sum of k·m digit products <= 2^53 - 1
        coords = digits(msgs[at:at + rows], p, m).reshape(-1, gm.k * m).astype(np.float64)
        prod = coords @ gm.over_fp
        quot = prod / p   # prod %= p: floor(x / p) is exact below 2^53
        np.floor(quot, out=quot)
        quot *= p
        prod -= quot
        out[at:at + rows] = prod.reshape(-1, gm.n, m) @ float(p) ** np.arange(m)
    return out


def encode(gm: GeneratorMatrix, message) -> tuple[int, ...]:
    fld = gm.es.field
    msg = tuple(message)
    if len(msg) != gm.k:
        raise LengthMismatch(f"message length {len(msg)} != k={gm.k}")
    if not all(type(v) is int and 0 <= v < fld.order for v in msg):
        raise ValueError(f"message symbols must be ints in [0, {fld.order}): {msg}")
    return tuple(_encode_block(gm, [msg]).ravel().tolist())


# -- bounds -------------------------------------------------------------------

def singleton_availability_upper(n: int, k: int, r: int) -> int:
    """n - (k-1 + floor((k-1)/r) + floor((k-1)/r^2))."""
    km1 = k - 1
    return n - (km1 + km1 // r + km1 // (r * r))


def distance_lower_bound(n: int, r: int) -> int:
    """n - (2r^2 - 2r - 3); informative for b >= 2 (returned regardless)."""
    return n - (2 * r * r - 2 * r - 3)


def distance_b1(r: int) -> int:
    """Exact single-orbit distance: (r+1)^2 - (r^2 + 2r - 7) = 8 for all r."""
    check_locality(r)
    return (r + 1) ** 2 - (r * r + 2 * r - 7)


def f_min_message(es: EvaluationSet) -> tuple[int, ...]:
    """Coefficient vector of x * prod_{j=1}^{r-1}(t - z^j t̄) * prod(x - x̄_i).

    The product kills r-1 whole fibers plus r-3 roots on each surviving
    fiber, so its codeword has weight exactly 8; defined for b = 1 only.
    """
    if es.b != 1:
        raise NotSingleOrbit(f"b = {es.b}")
    fld = es.field
    r = es.r
    zeta = es.params.zeta
    tbar = es.orbits[0].representative

    def linear(root: int) -> UniPoly:
        return poly(fld, [fld.neg(root), 1])

    a_t = poly(fld, [1])
    for j in range(1, r):
        a_t = a_t * linear(fld.mul(fld.pow(zeta, j), tbar))
    b_x = x_poly(fld)
    for xbar in es.roots[0][: r - 3]:
        b_x = b_x * linear(xbar)
    # deg b_x = r-2 and deg a_t = r-1, so every monomial lies in the basis
    return tuple(fld.mul(b_x.coeff(i), a_t.coeff(j))
                 for i, j in basis(r))


# -- exact minimum distance ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class DistanceResult:
    d: int
    witness: tuple[int, ...]
    exact: bool
    enumerated: int


def _better(zeros_a: int, msg_a, zeros_b: int, msg_b):
    """More zeros wins; ties broken by lexicographically smaller message."""
    if msg_a is None:
        return zeros_b, msg_b
    if msg_b is None or zeros_a > zeros_b or (zeros_a == zeros_b and msg_a < msg_b):
        return zeros_a, msg_a
    return zeros_b, msg_b


def _r3_scan_prefixes(es, a0val, lo, hi, chunk, budget_left):
    """Scan x-block prefixes a0 = a0val, (a1, a2) = divmod(range(lo, hi), q).

    One prefix a(t) covers the q² tails (u, v).  The symbol at point
    c = (x̄, t̄) vanishes on the line u + t̄·v = k_c = -a(t̄)/x̄.  Lines of one
    fiber are parallel and coincide when a(t̄) = 0; lines c, c' with
    t̄ < t̄' cross once, at v = (k_c - k_c')·(t̄ - t̄')⁻¹, a linear form
    a0·E0 + a1·E1 + a2·E2 in the prefix, the E_e built once.  A point (u, v)
    has as zeros the weights (r+1 if a(t̄) = 0, else 1) of the fibers whose
    lines pass through it.  Each crossing is counted once, on line c: on the
    least-t̄ line through a point, count + weight is all its zeros, on the
    others at most that.  So the best per prefix and the set of best points
    are those of counting each crossing on both lines.

    Counts come from pairs of crossings, one row (a0, a1) at a time, where
    crossing i sits at v_i = R_i + a2·E2_i.  Crossings i < j of one line
    meet at the one a2 = (R_i - R_j)/(E2_j - E2_i) if E2 differs, at every
    a2 if (R, E2) agree, else never.  So a point's count is, for its least
    crossing i, 1 + A_i (the later crossings agreeing with i) + the pairs
    (i, j) meeting there: one np.unique over keys (a2, i) per block of about
    2¹⁴ pairs, each crossing with all its pairs.  At every other a2 a line
    counts its largest 1 + A_i, and it weighs r+1 at its one
    a2 = -(a0 + a1·t̄)/t̄² (t̄ ≠ 0).  The witness is the least best point of
    the first best prefix (a later prefix loses every tie).  It holds a
    crossing: only the largest-t̄ fiber's lines hold none, and if that fiber
    is killed its line meets each other line at a count ≥ r+1.  The budget,
    checked before each chunk, admits ⌈budget_left / (chunk·q²)⌉ chunks.
    Returns (best, candidates, completed).
    """
    fld, q, n, r = es.field, es.field.order, es.n, es.r
    NEG, INV = (fld.np_tables()[name] for name in ("NEG", "INV"))
    tc, nix = es.xyt[2], NEG[INV[es.xyt[0]]]
    tt = fld.vmul(tc, tc)
    ci, cj = np.nonzero(tc[:, None] < tc[None, :])
    ke = np.stack([nix, fld.vmul(tc, nix), fld.vmul(tt, nix)])  # k = Σ a·ke
    e0, e1, e2 = fld.vmul(fld.vsum(ke[:, ci], NEG[ke][:, cj]),
                          INV[fld.vsum(tc[ci], NEG[tc[cj]])])
    P = len(ci)
    later = np.searchsorted(ci, ci, side="right") - 1 - np.arange(P)
    pairs = np.concatenate([[0], np.cumsum(later)])  # pairs before crossing i
    cuts = [*np.flatnonzero(np.diff(pairs[:-1] >> 14, prepend=-1)), P]
    stop = hi if budget_left is None else min(
        hi, lo + max(0, -(-budget_left // (chunk * q * q))) * chunk)
    best, s = (-1, None), lo
    while s < stop:
        a1, first = divmod(s, q)
        g = min(q - first, stop - s)
        s += g
        rr = fld.vsum(fld.vmul(a0val, e0), fld.vmul(a1, e1))
        kill = fld.vmul(NEG[fld.vsum(a0val, fld.vmul(a1, tc))], INV[tt]) - first
        zmax, line = np.zeros(g, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for b0, b1 in zip(cuts, cuts[1:]):
            pi = np.repeat(np.arange(b0, b1), later[b0:b1])
            pj = pi + 1 + np.arange(pairs[b0], pairs[b1]) - pairs[pi]
            dr, de = fld.vsum(rr[pi], NEG[rr[pj]]), fld.vsum(e2[pj], NEG[e2[pi]])
            own = 1 + np.bincount(pi[(dr == 0) & (de == 0)] - b0, minlength=b1 - b0)
            np.maximum.at(line, ci[b0:b1], own)
            a2 = fld.vmul(dr, INV[de]) - first
            keep = (de != 0) & (a2 >= 0) & (a2 < g)
            key, hits = np.unique(a2[keep] * P + pi[keep], return_counts=True)
            a2, i = divmod(key, P)
            np.maximum.at(zmax, a2, own[i - b0] + hits
                          + np.where(kill[ci[i]] == a2, r + 1, 1))
        zmax = np.maximum(zmax, line.max() + 1)
        on = (kill >= 0) & (kill < g)
        np.maximum.at(zmax, kill[on], line[on] + r + 1)
        gb = int(zmax.argmax())
        if zmax[gb] <= best[0]:
            continue
        key, hits = np.unique(ci * q + fld.vsum(rr, fld.vmul(first + gb, e2)),
                              return_counts=True)
        w = np.where(kill == gb, r + 1, 1)
        cs, vs = divmod(key[hits + w[key // q] == zmax[gb]], q)
        at = fld.vsum(a0val, fld.vmul(a1, tc[cs]), fld.vmul(first + gb, tt[cs]))
        us = fld.vsum(fld.vmul(at, nix[cs]), NEG[fld.vmul(tc[cs], vs)])
        u, v = divmod(int((us * q + vs).min()), q)
        best = int(zmax[gb]), (a0val, a1, first + gb, u, v)
    return best, (stop - lo) * q * q, stop == hi


@cache
def _key_codes(fld):
    """(NLOG, CODE): CODE[LOG[s1] + NLOG[s2]] is LOG[s1] - LOG[s2] mod
    (q - 1), or q - 1 if s1 = 0, q if s2 = 0 and q + 1 if both are.
    NLOG[a] = q - 1 - LOG[a], and 3q - 2 at a = 0; as LOG[0] = 2(q - 1),
    the four cases fall in disjoint ranges of the index."""
    q, LOG = fld.order, fld.np_tables()["LOG"]
    code = np.full(5 * q - 3, q)
    code[:2 * q - 1] = np.arange(2 * q - 1) % (q - 1)
    code[2 * q - 1:3 * q - 2], code[-1] = q - 1, q + 1
    return np.where(LOG < q - 1, q - 1 - LOG, 3 * q - 2), code


def _r3_pencils(es, picks, images=((1, 1),), floor=-1):
    """Best (zeros, message) on the pencils through point triples.

    The array picks (F, 3, C) holds C points on each fiber of F fiber
    triples; a point triple takes one of each, C³ ways.  Divided by x̄, the
    symbol at (x̄, t̄) is a(t̄) + x̄·(u + v·t̄).  The messages vanishing at
    three points on distinct fibers are a = -u·I[x] - v·I[x·t], I[y]
    interpolating y at their t̄.  Point p vanishes iff u·s1 + v·s2 = 0,
    s1 = x_p - I[x](t_p) and s2 = x_p·t_p - I[x·t](t_p): it picks the key
    v/u = -s1/s2, or every member if s1 = s2 = 0.  On the fiber t̄_k of
    pick k, s = (x_p - x_k)·(1, t̄_k): the picks lie on every member and
    the other r points on the member of key -1/t̄_k, whatever the picks.
    So s is computed only at the n - 3(r + 1) points off the triple's
    fibers, and a member scores 3 + (off points on every member) + (off
    points on its key) + r if its key is one of the three -1/t̄_k.
    I[y] = Σ_k y_k·L_k over the fiber triple's Lagrange basis, so the C³
    triples share their terms.  Keys compare as codes LOG[s1] - LOG[s2]
    mod (q - 1), three more codes for s1 = 0, s2 = 0 and both (_key_codes),
    counted by a sort of each row and its run lengths.  A best below floor
    returns (best, None); else the witness is the least normalized
    message among the best (triple, key) pairs and their images
    f^(w)(x, z·t), (w, z) in images: each coefficient c -> c^w, w = p^e,
    then (a0, a1, a2, u, v) scaled by (1, z, z², 1, z).
    """
    fld, q, r = es.field, es.field.order, es.r
    NEG, INV, LOG, EXP = (fld.np_tables()[name]
                          for name in ("NEG", "INV", "LOG", "EXP"))
    mul, add = fld.vmul, fld.vsum
    x, _, t = es.xyt
    y = np.stack([x, mul(x, t)])
    tk = t[picks[:, :, 0]]
    tl, th = tk[:, [1, 0, 0]], tk[:, [2, 2, 1]]      # the other two t̄
    # L_k = c_k·(t - tl)(t - th); w = -y_k·c_k at each pick: 2 x F x 3 x C
    c = INV[mul(add(tk, NEG[tl]), add(tk, NEG[th]))]
    w = mul(y[:, picks], NEG[c][..., None])
    off = np.nonzero((t != tk[..., None]).all(axis=1))[1].reshape(len(tk), -1)
    F, C3, M = len(tk), picks.shape[2] ** 3, off.shape[1]
    to = t[off][:, None]
    at = mul(add(to, NEG[tl][..., None]), add(to, NEG[th][..., None]))
    part = mul(w[..., None], at[:, :, None])         # 2 x F x 3 x C x M
    s1, s2 = add(y[:, off][:, :, None, None, None], part[:, :, 0, :, None, None],
                 part[:, :, 1, None, :, None],
                 part[:, :, 2, None, None]).reshape(2, -1, M)   # F·C³ x M
    NLOG, CODE = _key_codes(fld)
    code = np.sort(CODE[LOG[s1] + NLOG[s2]], axis=1).ravel()
    # the runs of equal codes in each row: first index, code, row, length
    start = np.ones(len(code), dtype=bool)
    np.not_equal(code[1:], code[:-1], out=start[1:])
    start[::M] = True
    first = np.flatnonzero(start)
    kv, row = code[first], first // M
    run = np.diff(first, append=len(code))
    # a row's base: the picks and the points on every member (code q + 1);
    # a run on one of its triple's -1/t̄_k scores r more
    base = np.full(F * C3, 3)
    base[row[kv > q]] += run[kv > q]
    fkey = (q - 1 - LOG[tk]) % (q - 1)
    byf = code.reshape(F, -1)
    own = (byf == fkey[:, :1]) | (byf == fkey[:, 1:2]) | (byf == fkey[:, 2:])
    score = np.where(kv > q, -1, base[row] + run + r * own.ravel()[first])
    best = max(int(score.max()), r + int(base.max()))
    if best < floor:
        return best, None
    # the best runs, and the three -1/t̄_k of each row whose base + r is
    # best: no off point hits them there, or they would score more
    lone = np.flatnonzero(base + r == best)
    row = np.concatenate([row[score == best], np.repeat(lone, 3)])
    kv = np.concatenate([kv[score == best], fkey[lone // C3].ravel()])
    # code -> member: (1, -s1/s2) = (1, -EXP[code]), (1, 0) or (0, 1)
    u = (kv != q).astype(np.int64)[:, None]
    v = np.where(kv < q - 1, NEG[EXP[kv]], kv - (q - 1))[:, None]
    # a = Σ_k a(t_k)·c_k·(t - tl)(t - th), a(t_k) = -(u·x_k + v·x_k·t_k)
    f, *choice = np.unravel_index(row, (F,) + picks.shape[2:] * 3)
    wk = w[:, f[:, None], [0, 1, 2], np.stack(choice, axis=1)]  # 2 x R x 3
    ak = add(mul(u, wk[0]), mul(v, wk[1]))
    lag = np.stack([mul(tl, th), NEG[add(tl, th)], np.ones_like(tl)], axis=-1)[f]
    a = add(*(mul(ak[:, k, None], lag[:, k]) for k in range(3)))
    msgs = np.column_stack([a, u, v])[:, None]
    w, z = np.asarray(images).T[..., None]
    lg = (LOG[msgs] * w + LOG[z] * [0, 1, 2, 0, 1]) % (q - 1)  # c^w·z^j
    msgs = np.where(msgs != 0, EXP[lg], 0).reshape(-1, 5)
    lead = msgs[np.arange(len(msgs)), (msgs != 0).argmax(axis=1)]
    msgs = mul(msgs, INV[lead][:, None])
    pick = np.lexsort(msgs.T[::-1])[0]  # the least; q^4 may pass int64
    return best, tuple(int(m) for m in msgs[pick])


def _fiber_group(es, tf):
    """The images (p^e, z) that map the code onto itself, and the group G
    of fiber permutations they induce, fiber f -> that of z·tf[f]^(p^e).

    z runs over the powers of ζ (the shift t̄ -> ζ·t̄), e over the multiples
    of the least k in 1..m - 1 for which σ^k, t̄ -> t̄^(p^k), maps every
    chosen fiber to a chosen one; with no such k, G is the shift alone.
    The pairs form a group, so G does: |G| <= 4·m.
    """
    fld, where = es.field, {t: f for f, t in enumerate(tf)}
    k = next((k for k in range(1, fld.m) if all(
        fld.pow(t, fld.p ** k) in where for t in tf)), fld.m)
    images = [(fld.p ** e, fld.pow(es.params.zeta, s))
              for e in range(0, fld.m, k) for s in range(es.r + 1)]
    return images, np.asarray(sorted({tuple(
        where[fld.mul(z, fld.pow(t, w))] for t in tf) for w, z in images}))


def _fiber_orbit_triples(perms) -> np.ndarray:
    """The fiber triples lex-least among their images under the group
    perms, G = <shift, σ^k> of _fiber_group: one per G-orbit."""
    nf = perms.shape[1]
    tri = np.asarray(list(combinations(range(nf), 3)), dtype=np.int64).reshape(-1, 3)
    rank = np.sort(perms[:, tri], axis=2) @ [nf * nf, nf, 1]
    return tri[rank.min(axis=0) == tri @ [nf * nf, nf, 1]]


def _fiber_halves(perms) -> np.ndarray:
    """Half A of the fibers, as a mask: the union of G-orbits (perms[:, f]
    is f's) whose size, by a subset sum over at most F + 1 sums, is nearest
    F/2.  C(|A|, 3) + C(F - |A|, 3) is convex in |A|, so no union of orbits
    has fewer triples inside its halves."""
    nf, orbit = perms.shape[1], perms.min(axis=0)
    came = {0: ()}  # each reachable |A| -> its orbits, by least fiber
    for o, size in zip(*np.unique(orbit, return_counts=True)):
        for s in list(came):
            came.setdefault(s + size, came[s] + (o,))
    return np.isin(orbit, came[min(came, key=lambda s: abs(2 * s - nf))])


def _half_triples(perms) -> np.ndarray:
    """The _fiber_orbit_triples of perms with all three fibers in one half,
    found inside each half: a half is a union of G-orbits, so G maps it
    onto itself, and a triple inside it has its lex-least image there."""
    half = _fiber_halves(perms)
    # perms restricted to a half, its fibers numbered in order
    return np.concatenate([
        fib[_fiber_orbit_triples(np.searchsorted(fib, perms[:, fib]))]
        for fib in (np.flatnonzero(half), np.flatnonzero(~half))])


def _r3_pencil_search(es):
    """Exact best (zeros, message) over all (q^5 - 1)/(q - 1) classes.

    On the fiber at t̄, f/x̄ = a(t̄) + x̄·w(t̄), w = u + v·t.  With w ≡ 0, f
    kills at most two whole fibers and has no other zero; the pair loop
    holds each that kills two, with 8 zeros, so a best message has 8 or
    more.  With w ≢ 0, f kills at most one fiber and has at most one zero
    on each other, so 8 zeros meet 5 or more fibers, 3 of them in one half
    of any split in two, and the pencil through one zero on each holds f.
    Each image (p^e, z) of _fiber_group maps f to f^(p^e)(x, z·t) with as
    many zeros (the surface, its section and the basis are over F_p), so
    the best set is closed under G.  The halves are unions of G-orbits, so
    some G-image of each triple in a half is kept, and every best message
    is an image of one found on a kept triple: the least image is the
    unreduced search's witness, and d cannot move.
    """
    fld, rp1 = es.field, es.r + 1
    fibers = np.asarray([es.fibers(es.point_index(l, 0, j))[1]
                         for l in range(es.b) for j in range(rp1)])
    tf = es.xyt[2, fibers[:, 0]].tolist()
    best = (-1, None)
    for t1, t2 in combinations(tf, 2):
        inv = fld.inv(fld.mul(t1, t2))
        msg = (1, fld.neg(fld.mul(fld.add(t1, t2), inv)), inv, 0, 0)
        best = _better(2 * rp1, msg, *best)
    images, perms = _fiber_group(es, tf)
    ftri = _half_triples(perms)
    per = (1 << 15) // ((es.n - 3 * rp1) * rp1 ** 3) or 1  # 2^15 keys fit in cache
    for s in range(0, len(ftri), per):
        best = _better(*_r3_pencils(es, fibers[ftri[s:s + per]], images,
                                    best[0]), *best)
    return best


def _default_chunk(q: int, n_points: int) -> int:
    # frozen: the chunk sets only the budget's granularity (a budget is
    # checked once per chunk), but that fixes `enumerated`, d and the
    # witness of every budgeted search
    return max(1, min(512, 2_000_000 // (q * q), 4_000_000 // (n_points * q)))


def _min_distance_r3(es: EvaluationSet, budget) -> DistanceResult:
    q = es.field.order
    # the prefix scan completes, and so is exact, iff budget > q^4 + q^3
    if budget is None or budget > q**4 + q**3:
        zeros, msg = _r3_pencil_search(es)
        return DistanceResult(es.n - zeros, msg, True, (q**5 - 1) // (q - 1))
    chunk = _default_chunk(q, es.n)
    best = (-1, None)
    enumerated = 0
    for a0val, lo, hi in ((1, 0, q * q), (0, q, 2 * q)):
        # once the budget is spent the next scan takes no prefix
        sub, cand, _ = _r3_scan_prefixes(
            es, a0val, lo, hi, chunk, budget - enumerated)
        best = _better(*sub, *best)
        enumerated += cand
    zeros, msg = best
    return DistanceResult(es.n - zeros, msg, False, enumerated)


def _min_distance_generic(es: EvaluationSet, gm: GeneratorMatrix,
                          budget) -> DistanceResult:
    """The search for r > 3; every r = 3 search takes _min_distance_r3.

    Encodes the classes in lex order (lead position, then the tail in
    base q) in blocks through the F_p expansion of gm.  It needs a budget:
    at r >= 5 there are at least (7^19 - 1)/6 classes, past any run time.
    """
    q = es.field.order
    k = gm.k
    classes = (q**k - 1) // (q - 1)
    if budget is None:
        raise ValueError(
            f"exhaustive search over {classes} message classes (r={es.r}, "
            f"{es.field.label}) would not finish; pass --budget")
    per = max(1, (1 << 16) // (es.n * es.field.m))
    best = (-1, None)
    enumerated = 0
    for lead in range(k):
        tails = q ** (k - 1 - lead)
        for start in range(0, tails, per):
            count = min(per, tails - start, budget - enumerated)
            if count == 0:
                break
            msgs = np.zeros((count, k), dtype=np.int64)
            msgs[:, lead] = 1
            # start passes int64 at r = 5 (q^18): take its digits in Python
            # and add the row offsets with carries
            carry, rest = np.arange(count), start
            for pos in range(k - 1, lead, -1):
                rest, digit = divmod(rest, q)
                carry, msgs[:, pos] = np.divmod(carry + digit, q)
            zeros = (_encode_block(gm, msgs) == 0).sum(axis=1)
            top = int(zeros.argmax())
            best = _better(int(zeros[top]), tuple(msgs[top].tolist()), *best)
            enumerated += count
    zeros, msg = best
    return DistanceResult(es.n - zeros, msg, enumerated == classes, enumerated)


def min_distance(es: EvaluationSet, budget: int | None = None,
                 threads: int = 1) -> DistanceResult:
    """Exact minimum Hamming weight over nonzero codewords, with witness.

    The witness is the lexicographically least normalized message (first
    nonzero coordinate 1) among those of minimum weight.  budget caps the
    number of enumerated projective classes (block granularity); a
    truncated search returns the best of the classes it scanned, flagged
    exact=False — an upper bound.  For r = 3 a budget above q^4 + q^3,
    which the scan would finish, takes the exact pencil search instead.
    threads is accepted for compatibility and has no effect.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if es.r == 3:
        return _min_distance_r3(es, budget)
    return _min_distance_generic(es, generator_matrix(es), budget)


# -- profile -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CodeProfile:
    """Everything reportable about one constructed code.

    The one judge of a code: every profile, computed or read from a file,
    meets the rules below or raises BoundsViolation.
    """

    field_label: str
    q: int
    m: int
    r: int
    availability: int
    b: int
    orbit_indices: tuple[int, ...]
    n: int
    k: int
    d_lower: int
    d_upper: int
    d_exact: int | None = None
    d_witness: tuple[int, ...] | None = None

    def __post_init__(self):
        # a search can meet an exact distance below the lower bound (F_625
        # orbits 1..7 has d = n - 10), so it is checked first, on its own
        if self.d_exact is not None \
                and not self.d_lower <= self.d_exact <= self.d_upper:
            raise BoundsViolation(
                f"d_exact={self.d_exact} outside [{self.d_lower}, {self.d_upper}]")
        r, k, n, b = self.r, self.k, self.n, self.b
        if not (r >= 3 and r % 2 and k == r * (r - 1) - 1
                and b == len(self.orbit_indices) and n == b * (r + 1) ** 2
                and self.availability == 2):
            raise BoundsViolation(
                f"r={r}, k={k}, n={n}, b={b}, availability={self.availability} "
                f"describe no code on {len(self.orbit_indices)} orbits")
        if self.d_lower != distance_lower_bound(n, r) \
                or not self.d_lower <= self.d_upper \
                <= singleton_availability_upper(n, k, r) \
                or self.d_exact not in (None, self.d_upper):
            raise BoundsViolation(
                f"bounds d_lower={self.d_lower}, d_upper={self.d_upper}, "
                f"d_exact={self.d_exact} do not fit n={n}, k={k}, r={r}")
        w = self.d_witness
        if w is not None and (len(w) != k or next((v for v in w if v), 0) != 1):
            raise BoundsViolation(
                f"witness {w} is not a message of length {k} led by 1")


def code_profile(es: EvaluationSet, dist: DistanceResult | None = None) -> CodeProfile:
    r = es.r
    k = r * (r - 1) - 1
    n = es.n
    d_upper = singleton_availability_upper(n, k, r)
    d_exact = witness = None
    if dist is not None:
        d_upper = min(d_upper, dist.d)  # a found codeword weight bounds d
        if dist.exact:
            d_exact = dist.d
        witness = dist.witness
    return CodeProfile(
        field_label=es.field.label,
        q=es.params.q,
        m=es.params.m,
        r=r,
        availability=2,
        b=es.b,
        orbit_indices=tuple(es.orbit_indices),
        n=n,
        k=k,
        d_lower=distance_lower_bound(n, r),
        d_upper=d_upper,
        d_exact=d_exact,
        d_witness=witness,
    )
