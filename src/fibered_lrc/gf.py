"""Deterministic finite-field construction and arithmetic.

A field of order p^m is a :class:`FieldSpec`.  Elements are plain integers
in ``range(p**m)``: the element ``sum(c_i * w**i)`` (``w`` the class of X
modulo the defining polynomial) is encoded as ``sum(c_i * p**i)``.

Construction is reproducible and runs in two steps.  The prime field F_p
comes first, in integer arithmetic: its generator is the least primitive
root, found with ``pow``.  For m > 1, polynomials over that F_p
(:class:`poly.UniPoly`) then pick the modulus, by default the
lexicographically least monic irreducible polynomial of degree m
(coefficient vectors compared low-degree-first; Ben-Or's test, the
distinct-degree loop of :func:`poly.factor_monic` stopped at its first
factor), and the generator, the least element of full multiplicative
order under the same ordering.  The log/antilog tables are filled by
walking the F_p-linear map "multiply by the generator", an m x m matrix
over F_p applied to the digit vectors of all elements at once.  Each
field holds one set of lookup tables, Python lists of at most about 4q
entries: the scalar operations read them, and :meth:`FieldSpec.vsum` and
:meth:`FieldSpec.vmul` read int64 copies with the same algorithms.
Orders above 2**20 are rejected.

Two orderings are used deliberately:

* construction ordering (moduli, generator search): lexicographic on
  coefficient vectors, low degree first;
* canonical element ordering (roots, orbits, reporting): zero first, then
  ascending discrete-log index.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

TABLE_LIMIT = 1 << 20       # largest supported field order


class NotPrime(ValueError):
    pass


class UnsupportedCharacteristic(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class FieldTooLarge(ValueError):
    pass


class FieldMismatch(TypeError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class OrderNotDivisible(ValueError):
    pass


class NonSquare(ValueError):
    pass


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """A finite field of order p^m with its lookup tables.

    Instances are obtained through :func:`make_field`.  All element-level
    methods take and return raw integer encodings, as built-in ints; ring
    code that wants operators uses :class:`poly.UniPoly` (constants
    included).

    The tables are lists.  EXP (4q - 3 entries) holds gen^i below
    2(q - 1) and zero from there on, and LOG[0] = 2(q - 1), so
    EXP[LOG[a] + LOG[b]] = a·b with no branch for zero.  NEG[a] is
    EXP[LOG[a] + (q - 1)/2], as -1 = gen^((q - 1)/2).  SPREAD rewrites an
    element's base-p digits in base 4p - 3, the low ⌈m/2⌉ digits in the low
    bit field of an integer and the others in the high one, so a sum of up
    to four spread elements has no carry; RED_LO and RED_HI, of
    (4p - 3)^⌈m/2⌉ entries, map the low and the high field of such a sum
    to the element of its digits mod p.  Prime fields add and negate mod p
    and hold NEG, SPREAD and the RED tables (up to 4p entries each) only
    as the arrays of :meth:`np_tables`.
    """

    __slots__ = ("p", "m", "order", "modulus", "gen", "_exp", "_log", "_neg",
                 "_spread", "_red_lo", "_red_hi", "_shift", "_mask", "_np")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], gen: int,
                 exp: list[int], log: list[int]):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = modulus
        self.gen = gen
        self._exp = exp
        self._log = log
        self._shift = ((4 * p - 3) ** ((m + 1) // 2) - 1).bit_length()
        self._mask = (1 << self._shift) - 1
        if m > 1:
            half = (self.order - 1) // 2
            self._neg = [exp[k + half] for k in log]
            self._spread, self._red_lo, self._red_hi = (
                tab.tolist() for tab in self._digit_tables())
        self._np = {}

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    @property
    def label(self) -> str:
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldSpec({self.label})"

    # -- raw arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        s = self._spread[a] + self._spread[b]
        return self._red_lo[s & self._mask] + self._red_hi[s >> self._shift]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self.label}")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero(f"division by zero in {self.label}")
        return self._exp[self._log[a] - self._log[b] + self.order - 1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero(f"zero to a negative power in {self.label}")
            return 0
        return self._exp[self._log[a] * e % (self.order - 1)]

    # -- discrete logs and ordering ----------------------------------------

    def log(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"discrete log of zero in {self.label}")
        return self._log[a]

    def from_log(self, k: int) -> int:
        return self._exp[k % (self.order - 1)]

    def order_key(self, a: int) -> int:
        """Canonical element ordering: zero first, then discrete-log index."""
        return -1 if a == 0 else self._log[a]

    def elements(self):
        """All elements in canonical order (zero, then powers of gen)."""
        yield 0
        yield from itertools.islice(self._exp, self.order - 1)

    # -- squares -------------------------------------------------------------

    def is_square(self, a: int) -> bool:
        return self._log[a] % 2 == 0     # zero too: LOG[0] = 2(q - 1)

    def sqrt(self, a: int) -> int:
        """Canonical square root (the one with the smaller discrete log)."""
        if a == 0:
            return 0
        l = self._log[a]
        if l % 2:
            raise NonSquare(f"{a} is not a square in {self.label}")
        return self._exp[l // 2]

    def nth_root_of_unity(self, n: int) -> int:
        """A primitive n-th root of unity, gen^((order-1)/n)."""
        if n <= 0 or (self.order - 1) % n:
            raise OrderNotDivisible(
                f"no primitive {n}-th root of unity in {self.label}")
        return self._exp[(self.order - 1) // n]

    # -- vector arithmetic on numpy arrays of elements ---------------------

    def _digit_tables(self) -> tuple[np.ndarray, ...]:
        """SPREAD, RED_LO and RED_HI (see the class docstring) as arrays."""
        p, m, h = self.p, self.m, (self.m + 1) // 2
        base = 4 * p - 3
        red = digits(np.arange(base**h), base, h) % p @ p**np.arange(h)
        # a = lo + p^h·hi, and hi < p^(m-h) <= p^h spreads like a low half
        low = digits(np.arange(p**h), p, h) @ base**np.arange(h)
        spread = ((low[:p**(m - h), None] << self._shift) + low).ravel()
        return spread, red, red * p**h

    def np_tables(self) -> dict:
        """The tables as int64 arrays, made on first call: EXP, LOG, NEG,
        SPREAD, RED_LO, RED_HI (prime fields too) and INV = EXP[q - 1 - LOG],
        with INV[0] = 0.  None is q x q."""
        if not self._np:
            exp, log = np.array(self._exp), np.array(self._log)
            spread, red_lo, red_hi = self._digit_tables()
            self._np = {"EXP": exp, "LOG": log,
                        "NEG": exp[log + (self.order - 1) // 2],
                        "INV": exp[self.order - 1 - log],  # INV[0] = EXP[1 - q] = 0
                        "SPREAD": spread, "RED_LO": red_lo, "RED_HI": red_hi}
        return self._np

    def vsum(self, *terms) -> np.ndarray:
        """Elementwise sum of up to four broadcasting element arrays."""
        if len(terms) > 4:
            raise ValueError(f"vsum adds at most four terms, got {len(terms)}")
        tabs = self.np_tables()
        acc = sum(tabs["SPREAD"][term] for term in terms)
        return tabs["RED_LO"][acc & self._mask] + tabs["RED_HI"][acc >> self._shift]

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcasting element arrays."""
        tabs = self.np_tables()
        return tabs["EXP"][tabs["LOG"][a] + tabs["LOG"][b]]


def digits(elems, base: int, count: int) -> np.ndarray:
    """The low `count` base-`base` digits of integers, along a new last axis."""
    place = base ** np.arange(count)
    return np.asarray(elems, dtype=np.int64)[..., None] // place % base


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def _walk_tables(p: int, m: int, modulus: tuple[int, ...], gen: int,
                 step) -> FieldSpec:
    """Fill exp/log by walking v -> step[v] = gen * v from 1."""
    q = p ** m
    powers, cur = [], 1
    for _ in range(q - 1):
        powers.append(cur)
        cur = step[cur]
    log = [2 * (q - 1)] * q
    for k, v in enumerate(powers):
        log[v] = k
    if log.count(2 * (q - 1)) > 1:
        raise RuntimeError("generator order check failed")
    # EXP, grown in place (no temporary lists of 4q entries): gen^i for
    # i < 2(q - 1), then zeros
    powers.extend(powers)
    powers.extend(itertools.repeat(0, 2 * q - 1))
    return FieldSpec(p, m, modulus, gen, powers, log)


def _prime_field(p: int, modulus: tuple[int, int]) -> FieldSpec:
    cofactors = [(p - 1) // ell for ell in _prime_factors(p - 1)]
    gen = next(g for g in range(1, p)
               if all(pow(g, e, p) != 1 for e in cofactors))
    return _walk_tables(p, 1, modulus, gen, [v * gen % p for v in range(p)])


def _extension_field(fp: FieldSpec, m: int, modulus: tuple[int, ...]) -> FieldSpec:
    from .poly import poly, pow_mod, x_poly

    p, q = fp.p, fp.p ** m
    f, one = poly(fp, modulus), poly(fp, [1])
    cofactors = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    # generator: least element (construction ordering) of order q-1
    for coeffs in itertools.product(range(p), repeat=m):
        g = poly(fp, coeffs)
        if not g.is_zero and all(pow_mod(g, e, f) != one for e in cofactors):
            break
    # row k of the matrix of multiplication by g holds the digits of g X^k
    rows, row = [], g
    for _ in range(m):
        rows.append(row.coeffs + (0,) * (m - len(row.coeffs)))
        row = row * x_poly(fp) % f
    place = p ** np.arange(m, dtype=np.int64)
    step = (digits(np.arange(q), p, m) @ np.array(rows) % p @ place).tolist()
    gen = sum(c * p**i for i, c in enumerate(g.coeffs))
    return _walk_tables(p, m, modulus, gen, step)


def make_field(p: int, m: int, modulus=None) -> FieldSpec:
    """Build (or fetch from cache) the field of order p^m.

    ``modulus``: optional monic irreducible coefficient vector, ascending
    degree, length m+1.  Defaults to the lexicographically least one.
    """
    # before trial division up to sqrt(p), and before p**m for a huge m
    if isinstance(p, int) and (p > TABLE_LIMIT or m > TABLE_LIMIT.bit_length()):
        raise FieldTooLarge(f"order {p}^{m} exceeds {TABLE_LIMIT}")
    if not isinstance(p, int) or _prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise UnsupportedCharacteristic("characteristic 2 is not supported")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** m > TABLE_LIMIT:
        raise FieldTooLarge(f"order {p**m} exceeds {TABLE_LIMIT}")

    if modulus is not None:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {m}: {modulus}")
    key = (p, m, modulus)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]

    if m == 1:
        modulus = modulus or (0, 1)   # every monic linear modulus works
    else:
        from .poly import is_irreducible, poly

        fp = make_field(p, 1)
        if modulus is None:
            # c0 = 0 makes X a factor: the lex-least has c0 >= 1
            tails = itertools.product(range(1, p), *[range(p)] * (m - 1))
            modulus = next(t + (1,) for t in tails
                           if is_irreducible(poly(fp, t + (1,))))
        elif not is_irreducible(poly(fp, modulus)):
            raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
    spec = _FIELD_CACHE.get((p, m, modulus))
    if spec is None:
        spec = (_prime_field(p, modulus) if m == 1
                else _extension_field(fp, m, modulus))
    _FIELD_CACHE[key] = _FIELD_CACHE[(p, m, modulus)] = spec
    return spec


_LABEL_RE = re.compile(r"^(\d+)\^(\d+)(?:/([\d,]+))?$")


def parse_field_label(s: str) -> FieldSpec:
    """Parse 'p^m' or 'p^m/c0,c1,...,1' into a field."""
    match = _LABEL_RE.match(s.strip())
    if not match:
        raise ValueError(f"bad field label {s!r}; expected p^m or p^m/c0,c1,...,1")
    p, m = int(match.group(1)), int(match.group(2))
    modulus = None
    if match.group(3):
        modulus = tuple(int(c) for c in match.group(3).split(","))
    return make_field(p, m, modulus)
