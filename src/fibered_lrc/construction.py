"""Construction of the evaluation set on the fibered surface.

The ambient surface over F_{q^m} is

    y^2 = x^3 - x^2 (t^{r+1} + 1) + x t^{r+1},

and the evaluation points live on its intersection with the section
y = x^{(r+1)/2} + 1.  Eliminating y gives, for each parameter value t, a
degree r+1 polynomial P_t(T) = A(T) + s (T^2 - T) in the x-coordinate,
with s = t^{r+1} and A = P_0.  A nonzero parameter is *nice* when P_t
splits into r+1 distinct linear factors.

The fibers are the Kummer cover x -> s: as P_t(0) = 1 and P_t(1) = 4, a
root x lies outside {0, 1} and fixes s = -A(x) / (x^2 - x).  One pass
over the field therefore buckets every x by the fiber it lies on.  The
parameters over a bucket are the r+1 solutions of t^{r+1} = s, a full
orbit under multiplication by a primitive (r+1)-th root of unity zeta,
and they are nice exactly when the bucket holds r+1 roots and s is a
nonzero (r+1)-th power.

An evaluation set picks b orbits; each contributes (r+1)^2 points
P_{l,i,j} = (x_i, x_i^{(r+1)/2} + 1, zeta^j t_l) indexed by root number i
and orbit position j (both 0-based, j=0 being the orbit representative).
Points are flattened in (l, i, j) row-major order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import FieldSpec, OrderNotDivisible
from .poly import UniPoly, constant, poly


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


def check_locality(r: int) -> None:
    if r < 3 or r % 2 == 0:
        raise BadLocality(f"locality r must be odd and >= 3, got {r}")


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
    check_locality(r)
    try:
        zeta = field.nth_root_of_unity(r + 1)
    except OrderNotDivisible as exc:
        raise NoAdmissibleBase(
            f"{r+1} does not divide {field.order} - 1") from exc
    # s = field.m qualifies once the root of unity exists
    s = next(s for s in range(1, field.m + 1)
             if field.m % s == 0 and (field.p**s - 1) % (r + 1) == 0)
    return SurfaceParams(field, r, field.p**s, field.m // s, zeta)


@functools.cache
def defining_coefficients(field: FieldSpec, r: int) -> tuple[UniPoly, ...]:
    """Coefficients of P_t(T) as polynomials in t, indexed by power of T.

    P_t(T) = T^{r+1} + 2 T^{(r+1)/2} - T^3 + T^2 (t^{r+1}+1) - T t^{r+1} + 1,
    with coincident powers of T merged (for r=3 the T^2 coefficient becomes
    t^4 + 3).  It is also the defining polynomial of the x/t function field.
    """
    check_locality(r)
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
    return tuple(coeffs)


def specialize_P(params: SurfaceParams, tbar: int) -> UniPoly:
    """P_t(T) with t specialized to a field element."""
    cps = defining_coefficients(params.field, params.r)
    return poly(params.field, [c.eval_at(tbar) for c in cps])


@dataclass(frozen=True)
class NiceOrbit:
    """A full orbit of nice parameters under multiplication by zeta.

    members[j] = zeta^j * representative; the representative is the
    canonically least member (zero-first discrete-log order).  roots are
    the r+1 roots of the fiber polynomial the members share, in canonical
    order.
    """

    representative: int
    members: tuple[int, ...]
    roots: tuple[int, ...]


@functools.cache
def find_nice_orbits(params: SurfaceParams) -> tuple[NiceOrbit, ...]:
    """All nice orbits with their fiber roots, sorted by representative.

    One array pass over the field's tables: s = -A(x) / (x^2 - x) at each
    x outside {0, 1} in canonical order (A by ``UniPoly.eval_nonzero``, so
    only its at most five nonzero terms cost a pass, whatever r is), then a
    stable sort by log s buckets each fiber's roots in that order.
    A bucket is a nice orbit when it holds r+1 roots and s = g^{(r+1)k} is
    a nonzero (r+1)-th power; members g^{k + j(q-1)/(r+1)}, least first.
    """
    fld, r = params.field, params.r
    rp1, q = r + 1, fld.order
    tabs = fld.np_tables()
    xs = tabs["EXP"][1:q - 1]
    a = specialize_P(params, 0).eval_nonzero(xs)
    x2_x = fld.vsum(fld.vmul(xs, xs), tabs["NEG"][xs])
    logs = tabs["LOG"][fld.vmul(tabs["NEG"][a], tabs["INV"][x2_x])]
    order = np.argsort(logs, kind="stable")
    fibers, first, size = np.unique(logs[order], return_index=True,
                                    return_counts=True)
    # LOG[0] = 2(q - 1); ascending log s is ascending representative
    nice = (size == rp1) & (fibers < q - 1) & (fibers % rp1 == 0)
    if not nice.any():
        raise NoNiceElements(f"no nice elements in {fld.label} for r={r}")
    roots = xs[order][first[nice, None] + np.arange(rp1)]
    step = (q - 1) // rp1
    members = tabs["EXP"][fibers[nice, None] // rp1 + step * np.arange(rp1)]
    return tuple(NiceOrbit(mem[0], tuple(mem), tuple(rts)) for mem, rts
                 in zip(members.tolist(), roots.tolist()))


@dataclass(frozen=True)
class EvaluationSet:
    """b chosen orbits and their b*(r+1)^2 evaluation points.

    xyt is a read-only (3, n) array of the points' x, y and t, by position;
    the orbits determine it, so equality and hashing skip it.
    """

    params: SurfaceParams
    orbit_indices: tuple[int, ...]
    orbits: tuple[NiceOrbit, ...]
    xyt: np.ndarray = dc_field(compare=False, repr=False)

    @property
    def field(self) -> FieldSpec:
        return self.params.field

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        """Fiber roots per chosen orbit, canonical order."""
        return tuple(ob.roots for ob in self.orbits)

    @property
    def b(self) -> int:
        return len(self.orbits)

    @functools.cached_property
    def n(self) -> int:
        return self.b * self.params.n_per_orbit

    def point_index(self, l: int, i: int, j: int) -> int:
        rp1 = self.params.r + 1
        if not (0 <= l < self.b and 0 <= i < rp1 and 0 <= j < rp1):
            raise IndexError(f"point ({l},{i},{j}) out of range")
        return (l * rp1 + i) * rp1 + j

    def triple(self, pos: int) -> tuple[int, int, int]:
        """(l, i, j) of a position: the inverse of point_index."""
        if not 0 <= pos < self.n:
            raise IndexError(f"position {pos} out of range [0, {self.n})")
        rp1 = self.params.r + 1
        return pos // rp1 // rp1, pos // rp1 % rp1, pos % rp1

    def fibers(self, pos: int) -> tuple[range, range]:
        """(horizontal, vertical): the positions of the two fibers through pos.

        Both include pos.  The horizontal fiber (same orbit and root,
        varying t) has step 1; the vertical one (same t, varying root) has
        step r+1.
        """
        if not 0 <= pos < self.n:
            raise IndexError(f"position {pos} out of range [0, {self.n})")
        rp1 = self.params.r + 1
        row = pos - pos % rp1
        col = pos - pos % rp1**2 + pos % rp1
        return range(row, row + rp1), range(col, col + rp1**2, rp1)

    def t_value(self, l: int, j: int) -> int:
        return self.orbits[l].members[j]


def build_evaluation_set(params: SurfaceParams, orbit_indices=None) -> EvaluationSet:
    """Assemble the evaluation set for the chosen orbits (default: all).

    Reads each orbit's fiber roots from the catalog and validates every
    structural requirement: points on both the surface and the section,
    and the nondegeneracy making each point's two recovery sets full size.
    Both depend on t only through s = t^{r+1}, so they are checked once
    per (orbit, root).
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

    fld, rp1, q = params.field, params.r + 1, params.field.order
    NEG, LOG, EXP = (fld.np_tables()[name] for name in ("NEG", "LOG", "EXP"))
    orbits = tuple(catalog[idx] for idx in orbit_indices)
    x = np.array([ob.roots for ob in orbits])                   # (b, r+1)
    s = np.array([[fld.pow(ob.representative, rp1)] for ob in orbits])
    y = fld.vsum(np.where(x == 0, 0, EXP[LOG[x] * (rp1 // 2) % (q - 1)]), 1)
    # on the surface, the Kummer quantity y^2 - x^3 + x^2 is s x (1-x); it
    # must be nonzero, otherwise a recovery set degenerates (x = 0 and
    # x = 1 are off the surface, which leaves t = 0)
    x2 = fld.vmul(x, x)
    kummer = fld.vsum(fld.vmul(y, y), NEG[fld.vmul(x2, x)], x2)
    off = kummer != fld.vmul(s, fld.vsum(x, NEG[x2]))
    bad = off | (kummer == 0)
    if bad.any():
        l, i = np.argwhere(bad)[0]
        at = f"(x={x[l, i]}, t^{rp1}={s[l, 0]})"
        raise InternalNicenessViolation(
            f"point {at} is off the surface" if off[l, i]
            else f"Kummer quantity vanishes at {at}")
    t = np.repeat([ob.members for ob in orbits], rp1, axis=0)  # (b(r+1), r+1)
    xyt = np.stack([np.repeat(x, rp1), np.repeat(y, rp1), t.ravel()])
    xyt.flags.writeable = False
    # points are pairwise distinct: (x, t) pairs determine them
    if len(set((xyt[0] * q + xyt[2]).tolist())) != xyt.shape[1]:
        raise InternalNicenessViolation("evaluation points collide")
    return EvaluationSet(params, orbit_indices, orbits, xyt)


def recovery_indices(es: EvaluationSet, l: int, i: int, j: int):
    """The two disjoint recovery sets of a position, as (l, i, j) triples.

    horizontal: same orbit and root, other fibers (fixed x, varying t);
    vertical: same fiber, other roots (fixed t, varying x).
    """
    es.point_index(l, i, j)     # range check
    return (tuple((l, i, k) for k in range(es.r + 1) if k != j),
            tuple((l, k, j) for k in range(es.r + 1) if k != i))


def m_sufficient(q: int, r: int) -> int:
    """Least m with q^m / m >= 2 (r+1)!, guaranteeing nice elements exist."""
    bound = 2 * math.factorial(r + 1)
    m = 1
    while q**m < bound * m:
        m += 1
    return m
