"""Univariate polynomials over a FieldSpec.

Coefficients are raw element encodings, ascending degree, no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -1.
The ring operations are scalar; the exhaustive search kernels never route
through this module.  One array evaluator, ``UniPoly.eval_nonzero``, serves
the root scan and the orbit catalog.  Factoring divides out the roots that
the scan finds and checks what is left with Ben-Or's irreducibility test,
which is all the verify polynomials need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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

    def eval_nonzero(self, xs) -> np.ndarray:
        """f at each element of an array of nonzero elements (the zero f
        gives the scalar 0).  Only the nonzero coefficients are read: c·x^k
        is EXP[log c + k·log x mod (q - 1)], and the terms are added three
        at a time by ``vsum``."""
        fld = self.field
        tabs, q1 = fld.np_tables(), fld.order - 1
        logs = tabs["LOG"][xs]
        terms = (tabs["EXP"][fld.log(c) + k * logs % q1]
                 for k, c in enumerate(self.coeffs) if c)
        acc = 0
        while batch := list(itertools.islice(terms, 3)):
            acc = fld.vsum(acc, *batch)
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
    """Ben-Or's test, f squarefree or not: f is irreducible iff no
    irreducible of degree d <= deg(f)/2 divides it, i.e. iff each
    gcd(X^(q^d) - X, f) is 1; X^(q^d) mod f advances by one q-th power per
    step, and the loop stops at the first factor."""
    if f.degree < 1:
        return False
    if f.coeffs[0] == 0:  # divisible by X
        return f.degree == 1
    x = h = x_poly(f.field)
    for _ in range(f.degree // 2):
        h = pow_mod(h, f.field.order, f)
        if poly_gcd(h - x, f).degree > 0:
            return False
    return True


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
    """Roots in the field, in canonical element order: zero when the
    constant term is 0, then each power of the generator at which
    ``eval_nonzero`` reads 0."""
    if f.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    fld = f.field
    powers = fld.np_tables()["EXP"][:fld.order - 1]
    roots = [0] if f.coeffs[0] == 0 else []
    for lo in range(0, len(powers), 1 << 16):   # blocks bound the temporaries
        block = powers[lo:lo + (1 << 16)]
        roots += block[f.eval_nonzero(block) == 0].tolist()
    return tuple(roots)


def factor_monic(f: UniPoly) -> tuple[tuple[UniPoly, int], ...]:
    """Irreducible monic factors with multiplicities, canonically ordered,
    of an f that splits into lines but for at most one irreducible factor
    of multiplicity 1, as every verify polynomial does.

    The unit leading coefficient of f is discarded.  X^v (v the index of
    the first nonzero coefficient) comes off first, and a line is kept as
    it is; otherwise each root of ``all_roots`` is divided out with its
    multiplicity.  What is left has no root, and unless it is a constant
    it must pass ``is_irreducible``.  A leftover that fails, or a root
    that divides nothing, raises ArithmeticError.
    """
    field = f.field
    if f.degree < 1:
        raise ValueError("nothing to factor")
    g = f.monic()
    v = next(i for i, c in enumerate(g.coeffs) if c)
    found = [(x_poly(field), v)] if v else []
    g = UniPoly(field, g.coeffs[v:])
    for root in all_roots(g) if g.degree > 1 else ():
        line, e = UniPoly(field, (field.neg(root), 1)), 0
        while g.degree > 0:
            quo, rem = divmod(g, line)
            if not rem.is_zero:
                break
            g, e = quo, e + 1
        if e == 0:  # a sound root divides g: fail, not skip
            raise ArithmeticError(f"root {root} of {f} divides nothing")
        found.append((line, e))
    if g.degree > 0:
        if not is_irreducible(g):
            raise ArithmeticError(f"{g} has no root and is not irreducible")
        found.append((g, 1))
    return tuple(sorted(found, key=lambda it: (it[0].degree, it[0].coeffs)))
