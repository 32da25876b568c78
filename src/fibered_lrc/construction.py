"""Construction of the evaluation set on the fibered surface.

The ambient surface over F_{q^m} is

    y^2 = x^3 - x^2 (t^{r+1} + 1) + x t^{r+1},

and the evaluation points live on its intersection with the section
y = x^{(r+1)/2} + 1.  Eliminating y gives, for each parameter value t, a
degree r+1 polynomial P_t(T) whose roots are the x-coordinates lying over
t.  A nonzero parameter is *nice* when P_t splits into r+1 distinct linear
factors; nice parameters come in full orbits under multiplication by a
primitive (r+1)-th root of unity zeta, and the root set of P_t only
depends on t^{r+1}, hence is constant along an orbit.

An evaluation set picks b orbits; each contributes (r+1)^2 points
P_{l,i,j} = (x_i, x_i^{(r+1)/2} + 1, zeta^j t_l) indexed by root number i
and orbit position j (both 0-based, j=0 being the orbit representative).
Points are flattened in (l, i, j) row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf import FieldSpec, OrderNotDivisible
from .poly import (UniPoly, all_roots, constant, poly,
                   splits_completely_distinct)


class BadLocality(ValueError):
    """r is not an odd integer >= 3."""


class NoAdmissibleBase(ValueError):
    pass


class NoNiceElements(ValueError):
    pass


class EmptySelection(ValueError):
    pass


class InternalNicenessViolation(AssertionError):
    pass


@dataclass(frozen=True)
class SurfaceParams:
    """Field and locality parameters of one surface."""

    field: FieldSpec
    r: int
    q: int   # least prime power with q = 1 mod (r+1) whose power is the field
    m: int   # field order = q^m
    zeta: int  # primitive (r+1)-th root of unity

    @property
    def n_per_orbit(self) -> int:
        return (self.r + 1) ** 2


def surface_params(field: FieldSpec, r: int) -> SurfaceParams:
    if r < 3 or r % 2 == 0:
        raise ValueError(f"locality r must be odd and >= 3, got {r}")
    try:
        zeta = field.nth_root_of_unity(r + 1)
    except OrderNotDivisible as exc:
        raise NoAdmissibleBase(
            f"{r+1} does not divide {field.order} - 1") from exc
    q = m = None
    for s in range(1, field.m + 1):
        if field.m % s == 0 and (field.p**s - 1) % (r + 1) == 0:
            q, m = field.p**s, field.m // s
            break
    if q is None:
        raise NoAdmissibleBase(
            f"no base power of {field.p} is 1 mod {r+1} within {field.label}")
    return SurfaceParams(field, r, q, m, zeta)


_COEFF_CACHE: dict[tuple[FieldSpec, int], tuple[UniPoly, ...]] = {}


def defining_coefficients(field: FieldSpec, r: int) -> tuple[UniPoly, ...]:
    """Coefficients of P_t(T) as polynomials in t, indexed by power of T.

    P_t(T) = T^{r+1} + 2 T^{(r+1)/2} - T^3 + T^2 (t^{r+1}+1) - T t^{r+1} + 1,
    with coincident powers of T merged (for r=3 the T^2 coefficient becomes
    t^4 + 3).  It is also the defining polynomial of the x/t function field.
    """
    if r < 3 or r % 2 == 0:
        raise BadLocality(f"locality must be an odd integer >= 3, got {r}")
    key = (field, r)
    if key not in _COEFF_CACHE:
        rp1 = r + 1
        one = constant(field, 1)
        t_rp1 = poly(field, [0] * rp1 + [1])
        coeffs = [poly(field, [])] * (rp1 + 1)
        coeffs[0] = one
        coeffs[1] = -t_rp1
        coeffs[2] = t_rp1 + one
        coeffs[3] = coeffs[3] - one
        coeffs[rp1 // 2] = coeffs[rp1 // 2] + constant(field, 2)
        coeffs[rp1] = one
        _COEFF_CACHE[key] = tuple(coeffs)
    return _COEFF_CACHE[key]


def specialize_P(params: SurfaceParams, tbar: int) -> UniPoly:
    """P_t(T) with t specialized to a field element."""
    cps = defining_coefficients(params.field, params.r)
    return poly(params.field, [c.eval_at(tbar) for c in cps])


def is_nice_element(params: SurfaceParams, tbar: int) -> bool:
    """Nonzero t whose fiber polynomial splits into distinct linear factors."""
    if tbar == 0:
        return False
    return splits_completely_distinct(specialize_P(params, tbar))


@dataclass(frozen=True)
class NiceOrbit:
    """A full orbit of nice parameters under multiplication by zeta.

    members[j] = zeta^j * representative; the representative is the
    canonically least member (zero-first discrete-log order).
    """

    representative: int
    members: tuple[int, ...]


_ORBIT_CACHE: dict[SurfaceParams, tuple[NiceOrbit, ...]] = {}


def find_nice_orbits(params: SurfaceParams) -> tuple[NiceOrbit, ...]:
    """All nice orbits, sorted by canonical order of their representatives.

    Scanning in canonical element order makes the first member seen of each
    orbit its canonical representative.
    """
    if params in _ORBIT_CACHE:
        return _ORBIT_CACHE[params]
    fld, r = params.field, params.r
    seen: set[int] = set()
    orbits: list[NiceOrbit] = []
    for t in fld.elements():
        if t == 0 or t in seen:
            continue
        members = [t]
        for _ in range(r):
            members.append(fld.mul(members[-1], params.zeta))
        seen.update(members)
        if not is_nice_element(params, t):
            continue
        # P_t depends on t only through t^{r+1}: one fiber polynomial, hence
        # one root set, serves the whole orbit
        fiber = specialize_P(params, t)
        if any(specialize_P(params, mem) != fiber for mem in members[1:]):
            raise InternalNicenessViolation(
                f"orbit of {t} does not share one fiber polynomial")
        orbits.append(NiceOrbit(t, tuple(members)))
    result = tuple(orbits)
    if not result:
        raise NoNiceElements(f"no nice elements in {fld.label} for r={r}")
    _ORBIT_CACHE[params] = result
    return result


@dataclass(frozen=True)
class SurfacePoint:
    l: int
    i: int
    j: int
    x: int
    y: int
    t: int


@dataclass(frozen=True)
class EvaluationSet:
    """b chosen orbits and their b*(r+1)^2 evaluation points."""

    params: SurfaceParams
    orbit_indices: tuple[int, ...]
    orbits: tuple[NiceOrbit, ...]
    roots: tuple[tuple[int, ...], ...]   # per orbit, canonical order
    points: tuple[SurfacePoint, ...]     # flattened (l, i, j) row-major

    @property
    def field(self) -> FieldSpec:
        return self.params.field

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def b(self) -> int:
        return len(self.orbits)

    @property
    def n(self) -> int:
        return self.b * self.params.n_per_orbit

    def point_index(self, l: int, i: int, j: int) -> int:
        rp1 = self.params.r + 1
        if not (0 <= l < self.b and 0 <= i < rp1 and 0 <= j < rp1):
            raise IndexError(f"point ({l},{i},{j}) out of range")
        return (l * rp1 + i) * rp1 + j

    def point_at(self, pos: int) -> SurfacePoint:
        return self.points[pos]

    def t_value(self, l: int, j: int) -> int:
        return self.orbits[l].members[j]

    def vertical_fibers(self):
        """(l, j, t value, root tuple) for every vertical fiber."""
        for l in range(self.b):
            for j in range(self.params.r + 1):
                yield l, j, self.orbits[l].members[j], self.roots[l]


def _rhs_cubic(fld: FieldSpec, r: int, x: int, t: int) -> int:
    """x^3 - x^2 (t^{r+1} + 1) + x t^{r+1}."""
    u = fld.pow(t, r + 1)
    x2 = fld.mul(x, x)
    term = fld.mul(x2, x)
    term = fld.sub(term, fld.mul(x2, fld.add(u, 1)))
    return fld.add(term, fld.mul(x, u))


def build_evaluation_set(params: SurfaceParams, orbit_indices=None) -> EvaluationSet:
    """Assemble the evaluation set for the chosen orbits (default: all).

    Validates every structural requirement: split fibers (the root set is
    shared along each orbit, as find_nice_orbits checks), points on both the
    surface and the section, and the nondegeneracy making each point's two
    recovery sets full size.
    """
    catalog = find_nice_orbits(params)
    if orbit_indices is None:
        orbit_indices = tuple(range(len(catalog)))
    orbit_indices = tuple(int(i) for i in orbit_indices)
    if not orbit_indices:
        raise EmptySelection("at least one orbit is required")
    if len(set(orbit_indices)) != len(orbit_indices):
        raise ValueError(f"duplicate orbit indices: {orbit_indices}")
    for idx in orbit_indices:
        if not 0 <= idx < len(catalog):
            raise IndexError(
                f"orbit index {idx} out of range (found {len(catalog)} orbits)")

    fld, r = params.field, params.r
    rp1 = r + 1
    orbits = tuple(catalog[idx] for idx in orbit_indices)
    roots_per_orbit = []
    points = []
    for l, orbit in enumerate(orbits):
        roots = all_roots(specialize_P(params, orbit.representative))
        if len(roots) != rp1:
            raise InternalNicenessViolation(
                f"fiber at t={orbit.representative} has {len(roots)} roots, wanted {rp1}")
        roots_per_orbit.append(tuple(roots))
        for i, x in enumerate(roots):
            y = fld.add(fld.pow(x, rp1 // 2), 1)
            for j, t in enumerate(orbit.members):
                if x == 0 or x == 1 or t == 0:
                    raise InternalNicenessViolation(
                        f"degenerate point (x={x}, t={t})")
                if fld.mul(y, y) != _rhs_cubic(fld, r, x, t):
                    raise InternalNicenessViolation(
                        f"point (x={x}, t={t}) is off the surface")
                # the Kummer quantity y^2 - x^3 + x^2 = t^{r+1} x (1-x) must
                # be nonzero, otherwise a recovery set degenerates
                kummer = fld.sub(fld.mul(y, y),
                                 fld.sub(fld.mul(fld.mul(x, x), x), fld.mul(x, x)))
                if kummer == 0:
                    raise InternalNicenessViolation(
                        f"Kummer quantity vanishes at (x={x}, t={t})")
                points.append(SurfacePoint(l, i, j, x, y, t))
    # points are pairwise distinct: (x, t) pairs determine them
    if len({(p.x, p.t) for p in points}) != len(points):
        raise InternalNicenessViolation("evaluation points collide")
    # reorder to (l, i, j) row-major: built as (l, i, j) already
    return EvaluationSet(params, orbit_indices, orbits,
                         tuple(roots_per_orbit), tuple(points))


def recovery_indices(es: EvaluationSet, l: int, i: int, j: int):
    """The two disjoint recovery sets of a position, as (l, i, j) triples.

    horizontal: same orbit and root, other fibers (fixed x, varying t);
    vertical: same fiber, other roots (fixed t, varying x).
    """
    rp1 = es.params.r + 1
    es.point_index(l, i, j)  # range check
    horizontal = tuple((l, i, jj) for jj in range(rp1) if jj != j)
    vertical = tuple((l, ii, j) for ii in range(rp1) if ii != i)
    return horizontal, vertical


def m_sufficient(q: int, r: int) -> int:
    """Least m with q^m / m >= 2 (r+1)!, guaranteeing nice elements exist."""
    bound = 2 * math.factorial(r + 1)
    m = 1
    while q**m < bound * m:
        m += 1
    return m
