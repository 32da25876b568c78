"""Univariate polynomials over a FieldSpec.

Coefficients are raw element encodings, ascending degree, no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -1.
Everything here is scalar-path code: the exhaustive search kernels never
route through this module.  One distinct-degree loop serves Ben-Or's
irreducibility test and the Cantor-Zassenhaus factoring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf import DivisionByZero, FieldMismatch, FieldSpec


@dataclass(frozen=True)
class UniPoly:
    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients must not have trailing zeros; use poly()")

    # -- basics --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "UniPoly") -> None:
        if not isinstance(other, UniPoly) or other.field != self.field:
            raise FieldMismatch(f"polynomials over different fields: {self} vs {other}")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return poly(f, [f.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        f = self.field
        return UniPoly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return UniPoly(f, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return poly(f, out)

    def scale(self, c: int) -> "UniPoly":
        f = self.field
        if c == 0:
            return UniPoly(f, ())
        return UniPoly(f, tuple(f.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "UniPoly"):
        self._check(other)
        f, deg = self.field, other.degree
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(f, ()), self
        quot = [0] * (dq + 1)
        inv_lead = f.inv(other.lead)
        for k in range(dq, -1, -1):
            c = f.mul(rem[k + deg], inv_lead)
            quot[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = f.sub(rem[k + i], f.mul(c, b))
        # step k clears rem[k + deg] for good in a sound field: fail, not spin
        if any(rem[deg:]):
            raise ArithmeticError(f"{f.label} arithmetic left a leading term")
        return poly(f, quot), poly(f, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    # -- analysis ---------------------------------------------------------------

    def eval_at(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def derivative(self) -> "UniPoly":
        f = self.field   # the integer i is the prime-subfield element i mod p
        return poly(f, [f.mul(i % f.p, c) for i, c in enumerate(self.coeffs[1:], 1)])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(self.field.inv(self.lead))

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = [f"{c}*X^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms)


def poly(field: FieldSpec, coeffs) -> UniPoly:
    """Normalize a coefficient list into a UniPoly."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    for c in cs:
        if not 0 <= c < field.order:
            raise ValueError(f"coefficient {c} out of range for {field.label}")
    return UniPoly(field, tuple(cs))


def x_poly(field: FieldSpec) -> UniPoly:
    return UniPoly(field, (0, 1))


def constant(field: FieldSpec, c: int) -> UniPoly:
    return poly(field, [c])


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    f._check(g)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def pow_mod(base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    if e < 0:
        raise ValueError("negative exponent")
    field = base.field
    result = constant(field, 1) % mod
    cur = base % mod
    while e:
        if e & 1:
            result = (result * cur) % mod
        cur = (cur * cur) % mod
        e >>= 1
    return result


def is_irreducible(f: UniPoly) -> bool:
    """Ben-Or's test, f squarefree or not: f is irreducible iff the
    distinct-degree loop yields its first part at d = deg f, not at a lower
    d with the part f itself, as two cubics do at d = 3."""
    if f.degree < 1:
        return False
    if f.coeffs[0] == 0:  # divisible by X
        return f.degree == 1
    return next(_distinct_degree_split(f))[0] == f.degree


def splits_completely_distinct(f: UniPoly) -> bool:
    """True iff f is a product of deg(f) distinct linear factors over the field.

    Test: X^q = X (mod f) and gcd(f, f') constant.
    """
    if f.degree < 1:
        return False
    x = x_poly(f.field)
    if pow_mod(x, f.field.order, f) != x % f:
        return False
    d = poly_gcd(f, f.derivative())
    return d.degree == 0


def all_roots(f: UniPoly) -> tuple[int, ...]:
    """Roots in the field, by exhaustive scan, in canonical element order."""
    if f.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    return tuple(v for v in f.field.elements() if f.eval_at(v) == 0)


def _equal_degree_split(g: UniPoly, d: int, rng: random.Random) -> list[UniPoly]:
    # g squarefree monic, every irreducible factor of degree exactly d
    if g.degree == d:
        return [g]
    field = g.field
    exp = (field.order**d - 1) // 2
    for _ in range(200):  # a draw splits g with probability about 1/2
        a = poly(field, [rng.randrange(field.order) for _ in range(g.degree)])
        if a.degree < 1:
            continue
        w = poly_gcd(pow_mod(a, exp, g) - constant(field, 1), g)
        if 0 < w.degree < g.degree:
            return (_equal_degree_split(w, d, rng)
                    + _equal_degree_split(g // w, d, rng))
    raise ArithmeticError(f"200 draws left deg {g.degree} unsplit")


def _distinct_degree_split(g: UniPoly):
    """(d, product of the degree-d factors) of the squarefree g, d ascending;
    X^(q^d) mod g advances by one q-th power per step."""
    x = x_poly(g.field)
    h, d = x, 0
    while g.degree >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, g.field.order, g)
        w = poly_gcd(h - x, g)
        if w.degree > 0:
            yield d, w
            g = g // w
            h = h % g
    if g.degree > 0:  # below 2(d + 1): one irreducible factor is left
        yield g.degree, g


def factor_monic(f: UniPoly) -> tuple[tuple[UniPoly, int], ...]:
    """Irreducible monic factors with multiplicities, canonically ordered.

    Cantor-Zassenhaus with a fixed-seed splitter, so the run is
    reproducible.  Odd characteristic only (all fields here are odd).
    The unit leading coefficient of f is discarded.
    """
    field = f.field
    if field.p == 2:
        raise ValueError("factorization supports odd characteristic only")
    if f.degree < 1:
        raise ValueError("nothing to factor")
    rng = random.Random(0x5EED)
    found: dict[tuple[int, ...], list] = {}
    stack = [(f.monic(), 1)]
    while stack:
        g, mult = stack.pop()
        if g.degree < 1:
            continue
        der = g.derivative()
        if der.is_zero:
            # g = h(X^p): extract the p-th root coefficientwise
            root = poly(field, [field.pow(c, field.order // field.p)
                                for c in g.coeffs[::field.p]])
            stack.append((root, mult * field.p))
            continue
        squarefree_part = g // poly_gcd(g, der)
        for d, part in _distinct_degree_split(squarefree_part):
            for piece in _equal_degree_split(part, d, rng):
                e = 0
                while g.degree >= piece.degree:
                    quo, rem = divmod(g, piece)
                    if not rem.is_zero:
                        break
                    g, e = quo, e + 1
                item = found.setdefault(piece.coeffs, [piece, 0])
                item[1] += mult * e
        stack.append((g, mult))  # factors with p | multiplicity remain here
    out = tuple(sorted(((p_, m) for p_, m in found.values()),
                       key=lambda it: (it[0].degree, it[0].coeffs)))
    if sum(p_.degree * m for p_, m in out) != f.degree:
        raise ArithmeticError(f"factor degrees do not add up to deg {f.degree}")
    return out
