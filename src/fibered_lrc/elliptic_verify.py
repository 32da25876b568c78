"""Fiber-level group-law checks for the r = 3 surface.

Every fiber checked here lives on one model, y^2 = x^3 + a2 x^2 + a4 x,
with the 2-torsion point (0, 0) on it.  Vertical fibers are the cubics
y^2 = x(x-1)(x-tbar^4), so a2 = -(tbar^4 + 1) and a4 = tbar^4; the four
evaluation points on a smooth one must sum to the identity.  Horizontal
fibers are genus-1 quartics y^2 = c(t^4 - xbar) with c = xbar - xbar^2;
when c is a square the fiber maps to Y^2 = X^3 - 4AB X (a2 = 0), where
the four points must sum into the 2-torsion.  Both families have a root
of the cubic at x = 0 and no xy or y term, so the general Weierstrass
form is never needed.  Such a curve is smooth iff a4 != 0 and
a2^2 != 4 a4, read off 16 a4^2 (a2^2 - 4 a4) with p odd.

:func:`fiber_sums` checks all 2·b·(r+1) fibers in one array pass: both
families stacked as rows of (a2, a4) with r+1 points each, a singular
model or a twist that is not a nonzero square refused by mask, r
chord-tangent steps by ``vmul``, ``vsum`` and INV with the identity as a
flag and P = -Q and doubling as masks, and every point, partial sum and
quartic checked in a fiber-by-fiber walk's order.  The discriminant of
the vertical family vanishes to orders {8, 8, 2, 2, 2, 2} over the t-line.
"""

import numpy as np

from .construction import BadLocality, EvaluationSet, SurfaceParams
from .poly import constant, factor_monic, poly


class SingularFiber(Exception):
    """The requested fiber is not a smooth curve."""


class PointNotOnCurve(ArithmeticError):
    pass


class NonSquareTwist(Exception):
    """The horizontal fiber's twist c = xbar - xbar^2 is not a square."""


# fiber_sums verdicts: the sum of a fiber's points is O, nonzero 2-torsion
# or neither, or the fiber is refused
SUM_O, SUM_TWO_TORSION, SUM_OTHER, SINGULAR, NONSQUARE = range(5)


# the checks of one fiber in a fiber-by-fiber walk, as columns of (quartic
# of point k: 0-3, point k: 4-7, sum of 2, 3, 4 points: 8-10): ec_add
# checks the running sum and then the point it adds
_WALK = np.array([0, 4, 1, 5, 2, 8, 6, 3, 9, 7, 10])


def _on_curve(fld, a2, a4, x, y) -> np.ndarray:
    """Elementwise y^2 = x^3 + a2 x^2 + a4 x."""
    rhs = fld.vmul(x, fld.vsum(fld.vmul(x, fld.vsum(x, a2)), a4))
    return fld.vmul(y, y) == rhs


def _add_points(fld, a2, a4, p, q):
    """p + q elementwise on the curves (a2, a4), for p an (x, y, o) triple
    of arrays with o marking the identity and q an (x, y) pair: the chord
    through p and q, or the tangent at p = q, but O where q = -p, doubled
    2-torsion included.  Where o is set, x and y mean nothing."""
    NEG, INV = (fld.np_tables()[name] for name in ("NEG", "INV"))
    (px, py, po), (qx, qy) = p, q
    same_x = px == qx
    tangent = same_x & (py == qy)   # slope (3x^2 + 2 a2 x + a4) / 2y
    num = np.where(tangent, fld.vsum(
        fld.vmul(3 % fld.p, fld.vmul(px, px)),
        fld.vmul(fld.vmul(2 % fld.p, a2), px), a4), fld.vsum(qy, NEG[py]))
    den = np.where(tangent, fld.vmul(2 % fld.p, py), fld.vsum(qx, NEG[px]))
    lam = fld.vmul(num, INV[den])
    x3 = fld.vsum(fld.vmul(lam, lam), NEG[a2], NEG[px], NEG[qx])
    y3 = fld.vsum(fld.vmul(lam, px), NEG[fld.vmul(lam, x3)], NEG[py])
    return (np.where(po, qx, x3), np.where(po, qy, y3),
            ~po & same_x & (py == NEG[qy]))


def fiber_sums(es: EvaluationSet) -> np.ndarray:
    """The verdict on every fiber of an r = 3 evaluation set, as a
    (b, 2, r+1) array: [l, 0, j] for vertical fiber (l, ., j) and [l, 1, i]
    for horizontal fiber (l, i, .).  The horizontal points map to
    Y^2 = X^3 - 4AB X by X = 2a(y + a t^2), Y = 4a^2 t (y + a t^2), a^2 = A.
    Raises PointNotOnCurve at the first point, quartic or partial sum off
    its model, fibers in (l, family, index) order, refused fibers skipped."""
    if es.r != 3:
        raise BadLocality("fiber group sums are specific to locality 3")
    fld, nv = es.field, 4 * es.b    # rows: nv vertical fibers, nv horizontal
    LOG, EXP, NEG = (fld.np_tables()[name] for name in ("LOG", "EXP", "NEG"))
    four = 4 % fld.p
    x, y, t = es.xyt.reshape(3, es.b, 4, 4)     # axes (l, i, j)
    t2 = fld.vmul(t, t)
    t4 = fld.vmul(t2, t2)
    xbar = x[:, :, 0]                           # axes (l, i)
    A = fld.vsum(xbar, NEG[fld.vmul(xbar, xbar)])
    B = NEG[fld.vmul(A, xbar)]
    alpha = EXP[LOG[A] // 2][..., None]         # the canonical square root
    w = fld.vsum(y, fld.vmul(alpha, t2))
    u = t4[:, 0].ravel()                        # a4 of the cubics, by (l, j)
    a2 = np.concatenate([NEG[fld.vsum(u, 1)], np.zeros_like(u)])
    a4 = np.concatenate([u, NEG[fld.vmul(four, fld.vmul(A, B))].ravel()])
    # columns: the 4 points of a fiber (a vertical one's by i), then the
    # sums of the first 2, 3 and 4 of them
    cx, cy = (np.zeros((2 * nv, 7), np.int64) for _ in range(2))
    o = np.zeros((2 * nv, 7), bool)
    cx[:nv, :4], cy[:nv, :4] = (v.transpose(0, 2, 1).reshape(nv, 4)
                                for v in (x, y))
    cx[nv:, :4] = fld.vmul(2 % fld.p, fld.vmul(alpha, w)).reshape(nv, 4)
    cy[nv:, :4] = fld.vmul(four, fld.vmul(fld.vmul(alpha, alpha),
                                          fld.vmul(t, w))).reshape(nv, 4)
    total = (cx[:, 0], cy[:, 0], o[:, 0])
    for k in range(1, 4):
        total = _add_points(fld, a2, a4, total, (cx[:, k], cy[:, k]))
        cx[:, k + 3], cy[:, k + 3], o[:, k + 3] = total
    quartic = fld.vmul(y, y) == fld.vsum(fld.vmul(A[..., None], t4),
                                         B[..., None])
    ok = np.ones((2 * nv, 11), bool)
    ok[nv:, :4] = quartic.reshape(nv, 4)
    ok[:, 4:] = o | _on_curve(fld, a2[:, None], a4[:, None], cx, cy)
    nonsquare = np.concatenate([np.zeros(nv, bool),
                                ((A == 0) | (LOG[A] % 2 == 1)).ravel()])
    singular = (a4 == 0) | (fld.vmul(a2, a2) == fld.vmul(four, a4))
    bad = ~ok[:, _WALK] & ~(nonsquare | singular)[:, None]
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=1))  # first by (l, family, index)
        row = rows[np.argmin(rows % nv // 4 * 8 + rows // nv * 4 + rows % 4)]
        col = _WALK[bad[row].argmax()]
        if col < 4:
            at = (row - nv) // 4, row % 4, col
            raise PointNotOnCurve(f"(t, y) = ({t[at]}, {y[at]}) is off the "
                                  "quartic model")
        raise PointNotOnCurve(f"({cx[row, col - 4]}, {cy[row, col - 4]}) "
                              "not on the curve")
    sums = np.where(total[2], SUM_O,
                    np.where(total[1] == 0, SUM_TWO_TORSION, SUM_OTHER))
    return np.where(nonsquare, NONSQUARE, np.where(singular, SINGULAR, sums)
                    ).reshape(2, es.b, 4).transpose(1, 0, 2)


def verify_vertical_sum(es: EvaluationSet, l: int, j: int) -> bool:
    """Do the four evaluation points of vertical fiber (l, ., j) sum to O?"""
    es.point_index(l, 0, j)     # range check
    if (verdict := fiber_sums(es)[l, 0, j]) == SINGULAR:
        raise SingularFiber(f"vertical fiber (l={l}, j={j}) over "
                            f"{es.field.label} is singular")
    return verdict == SUM_O


def horizontal_sum_two_torsion(es: EvaluationSet, l: int, i: int) -> bool:
    """Does the image of horizontal fiber (l, i, .) on Y^2 = X^3 - 4AB X
    (see fiber_sums) sum into the 2-torsion?"""
    es.point_index(l, i, 0)     # range check
    verdict = fiber_sums(es)[l, 1, i]
    if verdict == NONSQUARE:
        raise NonSquareTwist(f"twist at x = {es.roots[l][i]} is not a "
                             "nonzero square")
    if verdict == SINGULAR:
        raise SingularFiber(f"horizontal fiber (l={l}, i={i}) over "
                            f"{es.field.label} is singular")
    return verdict in (SUM_O, SUM_TWO_TORSION)


def discriminant_profile(params: SurfaceParams):
    """Vanishing orders of the vertical family's discriminant over the
    t-line, including the point at infinity of the degree-24 form.  r = 3
    puts the 4th roots of unity in the field, so Δ = 16·t^8·(t^4 - 1)^2
    splits into lines; any other factor is broken arithmetic."""
    if params.r != 3:
        raise BadLocality("discriminant profile is specific to locality 3")
    fld = params.field
    t4 = poly(fld, [0, 0, 0, 0, 1])
    delta = _discriminant(-(t4 + constant(fld, 1)), t4)
    profile = [("t=infinity", 24 - delta.degree)]
    for g, mult in factor_monic(delta):
        if g.degree != 1:
            raise ArithmeticError(f"discriminant factor {g.coeffs} is not linear")
        profile.append((f"t={fld.neg(g.coeffs[0])}", mult))
    profile.sort(key=lambda it: (-it[1], it[0]))
    weighted = sum(mult for _, mult in profile)
    if weighted != 24:
        raise ArithmeticError(f"vanishing orders weigh {weighted}, not 24")
    return profile


def _discriminant(a2, a4):
    """16 a4^2 (a2^2 - 4 a4), the discriminant of y^2 = x^3 + a2 x^2 + a4 x,
    for a2, a4 polynomials in t (constants for one curve)."""
    p = a4.field.p
    return (a4 * a4 * (a2 * a2 - a4.scale(4 % p))).scale(16 % p)
