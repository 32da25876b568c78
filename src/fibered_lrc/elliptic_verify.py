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
a2^2 != 4 a4, read off 16 a4^2 (a2^2 - 4 a4) with p odd, so a curve is
tested in field scalars.  A point is a plain (x, y) pair, and the
identity O is None.  The discriminant of the vertical family vanishes to
orders {8, 8, 2, 2, 2, 2} over the t-line.
"""

from dataclasses import dataclass

from .construction import BadLocality, EvaluationSet, SurfaceParams
from .gf import FieldSpec
from .poly import constant, factor_monic, poly


class SingularFiber(Exception):
    """The requested fiber is not a smooth curve."""


class PointNotOnCurve(ArithmeticError):
    pass


class NonSquareTwist(Exception):
    """The horizontal fiber's twist c = xbar - xbar^2 is not a square."""


O = None  # the identity; every other point is an (x, y) pair


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a2 x^2 + a4 x over a field, with (0, 0) on it.

    Smooth by construction: a zero discriminant raises SingularFiber here,
    so the group law never has to check it.
    """

    field: FieldSpec
    a2: int
    a4: int

    def __post_init__(self):
        f = self.field  # the discriminant is 0 iff a4 = 0 or a2^2 = 4 a4
        if self.a4 == 0 or f.mul(self.a2, self.a2) == f.mul(4 % f.p, self.a4):
            raise SingularFiber(
                f"Weierstrass model over {self.field.label} is singular")

    def contains(self, pt) -> bool:
        if pt is O:
            return True
        f, (x, y) = self.field, pt
        rhs = f.mul(x, f.add(f.mul(x, f.add(x, self.a2)), self.a4))
        return f.mul(y, y) == rhs


def _require_on_curve(curve: WeierstrassCurve, pt) -> None:
    if not curve.contains(pt):
        raise PointNotOnCurve(f"{pt} not on the curve")


def ec_add(curve: WeierstrassCurve, p, q):
    """p + q for points (x, y) or O; both are checked on the curve."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    if p is O:
        return q
    if q is O:
        return p
    f, (px, py), (qx, qy) = curve.field, p, q
    if qx == px and qy == f.neg(py):  # q = -p
        return O
    if p == q:
        # slope (3x^2 + 2 a2 x + a4) / 2y
        num = f.add(f.mul(px, f.add(f.mul(3 % f.p, px),
                                    f.mul(2 % f.p, curve.a2))), curve.a4)
        den = f.mul(2 % f.p, py)
    else:
        num, den = f.sub(qy, py), f.sub(qx, px)
    lam = f.div(num, den)
    x3 = f.sub(f.mul(lam, lam), f.add(curve.a2, f.add(px, qx)))
    return x3, f.sub(f.mul(lam, f.sub(px, x3)), py)


def ec_is_two_torsion(curve: WeierstrassCurve, pt) -> bool:
    _require_on_curve(curve, pt)
    return pt is O or pt[1] == 0  # 2P = O iff P = -P


def vertical_fiber(field: FieldSpec, tbar: int) -> WeierstrassCurve:
    """The cubic y^2 = x^3 - x^2(u + 1) + x u, u = tbar^4; its discriminant
    16 u^2 (u - 1)^2 makes it raise SingularFiber for u in {0, 1}."""
    u = field.pow(tbar, 4)
    return WeierstrassCurve(field, field.neg(field.add(u, 1)), u)


def verify_vertical_sum(es: EvaluationSet, l: int, j: int) -> bool:
    """Do the four evaluation points of vertical fiber (l, ., j) sum to O?"""
    fld = es.field
    ver = es.fibers(es.point_index(l, 0, j))[1]
    xs, ys, ts = es.xyt[:, ver.start:ver.stop:ver.step].tolist()
    curve = vertical_fiber(fld, ts[0])
    total = O
    for pt in zip(xs, ys):
        total = ec_add(curve, total, pt)
    return total is O


def horizontal_quartic(es: EvaluationSet, l: int, i: int):
    """(A, B) of the genus-1 model y^2 = A t^4 + B over root (l, i)."""
    fld = es.field
    xbar = es.xyt.item(0, es.point_index(l, i, 0))
    c = fld.sub(xbar, fld.mul(xbar, xbar))
    return c, fld.neg(fld.mul(c, xbar))


def horizontal_sum_two_torsion(es: EvaluationSet, l: int, i: int) -> bool:
    """Map the four points of horizontal fiber (l, i, .) to the Weierstrass
    model Y^2 = X^3 - 4AB X via X = 2a(y + a t^2), Y = 4a^2 t (y + a t^2)
    with a^2 = A, then test whether their sum is 2-torsion."""
    fld = es.field
    A, B = horizontal_quartic(es, l, i)
    if A == 0 or not fld.is_square(A):
        raise NonSquareTwist(f"twist {A} is not a nonzero square")
    alpha = fld.sqrt(A)
    two, four = 2 % fld.p, 4 % fld.p
    a4 = fld.neg(fld.mul(four, fld.mul(A, B)))
    curve = WeierstrassCurve(fld, 0, a4)
    total = O
    hor = es.fibers(es.point_index(l, i, 0))[0]
    _, ys, ts = es.xyt[:, hor.start:hor.stop].tolist()
    for y, t in zip(ys, ts):
        if fld.mul(y, y) != fld.add(fld.mul(A, fld.pow(t, 4)), B):
            raise PointNotOnCurve(
                f"(t, y) = ({t}, {y}) is off the quartic model")
        w = fld.add(y, fld.mul(alpha, fld.mul(t, t)))
        img = (fld.mul(two, fld.mul(alpha, w)),
               fld.mul(four, fld.mul(fld.mul(alpha, alpha), fld.mul(t, w))))
        total = ec_add(curve, total, img)  # raises PointNotOnCurve off it
    return ec_is_two_torsion(curve, total)


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
