"""Fiber-level group-law checks for the r = 3 surface.

Vertical fibers are the cubics y^2 = x(x-1)(x-tbar^4); the four evaluation
points on a smooth one must sum to the identity.  Horizontal fibers are
genus-1 quartics y^2 = c(t^4 - xbar) with c = xbar - xbar^2; when c is a
square the fiber maps to a Weierstrass model where the four points must
sum into the 2-torsion.  The discriminant of the vertical family vanishes
to orders {8, 8, 2, 2, 2, 2} over the t-line.
"""

from dataclasses import dataclass
from typing import Optional

from .construction import BadLocality, EvaluationSet, SurfaceParams
from .gf import FieldSpec
from .poly import constant, factor_monic, poly


class SingularFiber(Exception):
    """The requested fiber is not a smooth curve."""


class PointNotOnCurve(ArithmeticError):
    pass


class NonSquareTwist(Exception):
    """The horizontal fiber's twist c = xbar - xbar^2 is not a square."""


@dataclass(frozen=True)
class CurvePoint:
    x: Optional[int] = None
    y: Optional[int] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


O = CurvePoint()


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over a field.

    Smooth by construction: a zero discriminant raises SingularFiber here,
    so the group law never has to check it.
    """

    field: FieldSpec
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise SingularFiber(
                f"Weierstrass model over {self.field.label} is singular")

    def _int(self, n: int) -> int:
        return n % self.field.p

    @property
    def discriminant(self) -> int:
        f = self.field
        coeffs = (f.elem(a) for a in (self.a1, self.a2, self.a3, self.a4, self.a6))
        return _discriminant(*coeffs, lambda n: f.elem(self._int(n))).val

    def contains(self, pt: CurvePoint) -> bool:
        if pt.is_infinity:
            return True
        f, x, y = self.field, pt.x, pt.y
        lhs = f.add(f.mul(y, y),
                    f.add(f.mul(self.a1, f.mul(x, y)), f.mul(self.a3, y)))
        rhs = f.add(f.mul(x, f.mul(x, x)),
                    f.add(f.mul(self.a2, f.mul(x, x)),
                          f.add(f.mul(self.a4, x), self.a6)))
        return lhs == rhs


def _require_on_curve(curve: WeierstrassCurve, pt: CurvePoint) -> None:
    if not curve.contains(pt):
        raise PointNotOnCurve(f"({pt.x}, {pt.y}) not on the curve")


def ec_neg(curve: WeierstrassCurve, pt: CurvePoint) -> CurvePoint:
    if pt.is_infinity:
        return O
    _require_on_curve(curve, pt)
    f = curve.field
    return CurvePoint(pt.x, f.neg(f.add(pt.y, f.add(
        f.mul(curve.a1, pt.x), curve.a3))))


def ec_add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    if p.is_infinity:
        _require_on_curve(curve, q)
        return q
    if q.is_infinity:
        _require_on_curve(curve, p)
        return p
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    f = curve.field
    if q == ec_neg(curve, p):
        return O
    if p == q:
        num = f.add(f.mul(curve._int(3), f.mul(p.x, p.x)),
                    f.add(f.mul(curve._int(2), f.mul(curve.a2, p.x)),
                          f.sub(curve.a4, f.mul(curve.a1, p.y))))
        den = f.add(f.mul(curve._int(2), p.y),
                    f.add(f.mul(curve.a1, p.x), curve.a3))
    else:
        num, den = f.sub(q.y, p.y), f.sub(q.x, p.x)
    lam = f.div(num, den)
    x3 = f.sub(f.add(f.mul(lam, lam), f.mul(curve.a1, lam)),
               f.add(curve.a2, f.add(p.x, q.x)))
    y3 = f.sub(f.mul(lam, f.sub(p.x, x3)),
               f.add(p.y, f.add(f.mul(curve.a1, x3), curve.a3)))
    return CurvePoint(x3, y3)


def ec_is_two_torsion(curve: WeierstrassCurve, pt: CurvePoint) -> bool:
    if pt.is_infinity:
        return True
    _require_on_curve(curve, pt)
    f = curve.field
    # 2P = O iff P = -P iff 2y + a1 x + a3 = 0
    return f.add(f.mul(curve._int(2), pt.y),
                 f.add(f.mul(curve.a1, pt.x), curve.a3)) == 0


def vertical_fiber(field: FieldSpec, tbar: int) -> WeierstrassCurve:
    """The cubic y^2 = x^3 - x^2(tbar^4 + 1) + x tbar^4 when smooth."""
    u = field.pow(tbar, 4)
    if u == 0 or u == 1:
        raise SingularFiber(f"fiber over tbar={tbar} degenerates (tbar^4={u})")
    return WeierstrassCurve(field, 0, field.neg(field.add(u, 1)), 0, u, 0)


def verify_vertical_sum(es: EvaluationSet, l: int, j: int) -> bool:
    """Do the four evaluation points of vertical fiber (l, ., j) sum to O?"""
    fld = es.field
    idxs = [es.point_index(l, i, j) for i in range(es.params.r + 1)]
    pts = [es.points[k] for k in idxs]
    curve = vertical_fiber(fld, pts[0].t)
    total = O
    for pt in pts:
        total = ec_add(curve, total, CurvePoint(pt.x, pt.y))
    return total == O


def horizontal_quartic(es: EvaluationSet, l: int, i: int):
    """(A, B) of the genus-1 model y^2 = A t^4 + B over root (l, i)."""
    fld = es.field
    xbar = es.points[es.point_index(l, i, 0)].x
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
    curve = WeierstrassCurve(fld, 0, 0, 0, a4, 0)
    total = O
    for j in range(es.params.r + 1):
        pt = es.points[es.point_index(l, i, j)]
        if fld.mul(pt.y, pt.y) != fld.add(fld.mul(A, fld.pow(pt.t, 4)), B):
            raise PointNotOnCurve(
                f"(t, y) = ({pt.t}, {pt.y}) is off the quartic model")
        w = fld.add(pt.y, fld.mul(alpha, fld.mul(pt.t, pt.t)))
        img = CurvePoint(
            fld.mul(two, fld.mul(alpha, w)),
            fld.mul(four, fld.mul(fld.mul(alpha, alpha), fld.mul(pt.t, w))))
        _require_on_curve(curve, img)
        total = ec_add(curve, total, img)
    return ec_is_two_torsion(curve, total)


def discriminant_profile(params: SurfaceParams):
    """Vanishing orders of the vertical family's discriminant over the
    t-line, including the point at infinity of the degree-24 form."""
    if params.r != 3:
        raise BadLocality("discriminant profile is specific to locality 3")
    fld = params.field
    t4 = poly(fld, [0, 0, 0, 0, 1])
    one = poly(fld, [1])
    a2 = -(t4 + one)
    a4 = t4
    zero = poly(fld, [])
    delta = _discriminant(zero, a2, zero, a4, zero,
                          lambda n: constant(fld, n % fld.p))
    profile = [("t=infinity", 24 - delta.degree)]
    weighted = 24 - delta.degree
    for g, mult in factor_monic(delta):
        if g.degree == 1:
            root = fld.neg(g.coeffs[0])
            label = "t=0" if root == 0 else f"t={root}"
        else:
            label = f"irreducible[{','.join(map(str, g.coeffs))}]"
        profile.append((label, mult))
        weighted += mult * g.degree
    profile.sort(key=lambda it: (-it[1], it[0]))
    if weighted != 24:
        raise ArithmeticError(f"vanishing orders weigh {weighted}, not 24")
    return profile


def _discriminant(a1, a2, a3, a4, a6, const):
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Ring-generic: the coefficients need +, -, unary - and *, and const(n)
    is the integer n in their ring (field elements or polynomials in t).
    """
    b2 = a1 * a1 + const(4) * a2
    b4 = const(2) * a4 + a1 * a3
    b6 = a3 * a3 + const(4) * a6
    b8 = (a1 * a1 * a6 + const(4) * a2 * a6 - a1 * a3 * a4
          + a2 * a3 * a3 - a4 * a4)
    return (-(b2 * b2 * b8) - const(8) * b4 * b4 * b4 - const(27) * b6 * b6
            + const(9) * b2 * b4 * b6)
