"""Support sets at the pole of t, their lower convex hulls, and the
segment polynomials that determine how (t=infinity) splits upstairs.

The defining polynomial of the x/t function field, normalized by t^-(r+1),
has a support set whose lower hull always consists of three segments; the
segment polynomials decide the places over (t=infinity), their
ramification/residue degrees, and through them the valuation table that
yields the generic distance lower bound n - (2r^2 - 2r - 3).
"""

from dataclasses import dataclass
from fractions import Fraction

from .construction import SurfaceParams, defining_coefficients
from .gf import FieldSpec
from .lrc_code import in_basis
from .poly import UniPoly, factor_monic, poly


class AllZero(Exception):
    """Every supplied coefficient is the zero polynomial."""


class ArcMismatch(ArithmeticError):
    """The arc at t = infinity disagrees with the expected splitting."""


@dataclass(frozen=True)
class SupportSet:
    points: tuple            # (exponent, valuation), exponent ascending
    residues: dict           # exponent -> residue of the unit part
    field: FieldSpec


@dataclass(frozen=True)
class ArcSegment:
    start: tuple
    end: tuple
    slope: Fraction
    points: tuple            # support points on the segment, endpoints included

    # slope written as -a/b with b > 0, gcd(a, b) = 1
    @property
    def a(self) -> int:
        return -self.slope.numerator

    @property
    def b(self) -> int:
        return self.slope.denominator


@dataclass(frozen=True)
class SegmentFactorData:
    gamma: UniPoly
    delta: UniPoly
    factors: tuple           # (irreducible monic UniPoly, multiplicity)


@dataclass(frozen=True)
class PlaceRecord:
    name: str
    e: int
    f: int
    v_t: int
    v_x: int


@dataclass(frozen=True)
class ValuationTable:
    r: int
    case: int                # 1: -1 is a square, 2: it is not
    places: tuple            # PlaceRecord, rational-to-the-arc order P1, P2, ...
    support: SupportSet      # the support set the arc was read from
    segments: tuple          # (ArcSegment, SegmentFactorData) along the arc


def support_set_at_infinity(coeff_polys, normalization: int) -> SupportSet:
    """Support set at the pole of t: v(a) = normalization - deg a."""
    points, residues, field = [], {}, None
    for i, a in enumerate(coeff_polys):
        field = a.field
        if a.is_zero:
            continue
        points.append((i, normalization - a.degree))
        residues[i] = a.lead
    if not points:
        raise AllZero("all coefficients vanish")
    return SupportSet(tuple(points), residues, field)


def lower_hull(ss: SupportSet) -> list:
    """Lower convex hull of the support set, as segments with strictly
    increasing slopes; collinear support points are kept on their segment."""
    pts = sorted(ss.points)
    if len(pts) < 2:
        return []
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    segments = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        on_seg = tuple(
            (l, v) for l, v in pts
            if i0 <= l <= i1 and (l - i0) * (v1 - v0) == (v - v0) * (i1 - i0))
        segments.append(ArcSegment((i0, v0), (i1, v1),
                                   Fraction(v1 - v0, i1 - i0), on_seg))
    return segments


def segment_polynomials(seg: ArcSegment, ss: SupportSet) -> SegmentFactorData:
    """Build the segment polynomial (monic, normalized by the residue at the
    segment's right endpoint), compress by the slope denominator b, and
    factor.  Each simple factor g is one place, with e = b and f = deg g."""
    fld = ss.field
    i0, i1 = seg.start[0], seg.end[0]
    norm = fld.inv(ss.residues[i1])
    width = i1 - i0
    gcoeffs = [0] * (width + 1)
    # lower_hull keeps only points on the segment line, and v - v0 =
    # (l - i0)·slope is an integer, so b divides every offset l - i0
    for l, _v in seg.points:
        gcoeffs[l - i0] = fld.mul(norm, ss.residues[l])
    gamma = poly(fld, gcoeffs)
    delta = poly(fld, [gcoeffs[k * seg.b] for k in range(width // seg.b + 1)])
    return SegmentFactorData(gamma, delta, factor_monic(delta))


def splitting_at_infinity(params: SurfaceParams) -> ValuationTable:
    """Places over (t=infinity), with per-place v(t) and v(x).

    Case 1 (-1 a square): four places, e-values 1, 1, (r-1)/2, (r-1)/2, all
    residue degree 1.  Case 2: three places, the last with f = 2.
    """
    fld, r = params.field, params.r
    coeffs = defining_coefficients(fld, r)
    ss = support_set_at_infinity(coeffs, r + 1)
    segments = lower_hull(ss)
    if len(segments) != 3:
        raise ArcMismatch(f"the arc has {len(segments)} segments, not three")
    case = 1 if fld.is_square(fld.neg(1)) else 2
    places, read = [], []
    for seg in segments:
        data = segment_polynomials(seg, ss)
        read.append((seg, data))
        if any(mult > 1 for _, mult in data.factors):
            raise ArithmeticError(
                "segment polynomial is not squarefree; "
                "splitting data cannot be read off this arc")
        for g, _ in data.factors:
            places.append(PlaceRecord(f"P{len(places) + 1}", seg.b, g.degree,
                                      -seg.b, seg.a))
    if sum(pl.e * pl.f for pl in places) != r + 1:
        raise ArcMismatch(f"sum of e*f over {places} is not {r + 1}")
    if len(places) != (4 if case == 1 else 3):
        raise ArcMismatch(f"case {case} with {len(places)} places: {places}")
    if places[0].v_x != r + 1 or places[1].v_x != 0:
        raise ArcMismatch(f"v_x at P1, P2 is not ({r + 1}, 0): {places[:2]}")
    if any(2 * pl.v_x != -(r + 1) for pl in places[2:]):
        raise ArcMismatch(f"v_x is not -(r+1)/2 beyond P2: {places[2:]}")
    return ValuationTable(r, case, tuple(places), ss, tuple(read))


def monomial_valuations(vt: ValuationTable, i: int, j: int) -> dict:
    """Per-place valuation of x^i t^j for a basis monomial (i, j)."""
    if not in_basis(i, j, vt.r):
        raise ValueError(f"monomial ({i}, {j}) is outside the basis range")
    return {pl.name: i * pl.v_x + j * pl.v_t for pl in vt.places}


def pole_degree(i: int, j: int, r: int) -> int:
    """Degree of the pole divisor of the basis monomial x^i t^j."""
    if not in_basis(i, j, r):
        raise ValueError(f"monomial ({i}, {j}) is outside the basis range")
    return i * (r + 1) + j * r
