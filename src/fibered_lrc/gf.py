"""Deterministic finite-field construction and arithmetic.

A field of order p^m is a :class:`FieldSpec`.  Elements are plain integers
in ``range(p**m)``: the element ``sum(c_i * w**i)`` (``w`` the class of X
modulo the defining polynomial) is encoded as ``sum(c_i * p**i)``.

Construction is reproducible and runs in two steps.  The prime field F_p
comes first, in integer arithmetic: its generator is the least primitive
root, found with ``pow``.  For m > 1, polynomials over that F_p
(:class:`poly.UniPoly`) then pick the modulus, by default the
lexicographically least monic irreducible polynomial of degree m
(coefficient vectors compared low-degree-first, Rabin's test), and the
generator, the least element of full multiplicative order under the same
ordering.  The exp/log tables are filled by walking the F_p-linear map
"multiply by the generator", an m x m matrix over F_p applied to the digit
vectors of all elements at once.  Addition is digit-wise base p; F_p
multiplies integers mod p; everything else goes through the log/antilog
tables.  Orders above 2**20 are rejected.

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
PAIR_TABLE_LIMIT = 2048     # largest order for dense Q x Q numpy tables


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    """A finite field of order p^m with log/antilog tables.

    Instances are obtained through :func:`make_field`.  All element-level
    methods take and return raw integer encodings; ring code that wants
    operators uses :class:`poly.UniPoly` (constants included).
    """

    __slots__ = ("p", "m", "order", "modulus", "gen", "_exp", "_log", "_np")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], gen: int,
                 exp: np.ndarray, log: np.ndarray):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = modulus
        self.gen = gen
        self._exp = exp      # length 2*(order-1); exp[i] = gen^i
        self._log = log      # length order; log[0] = -1 sentinel
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
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return (-a) % p
        out, mult = 0, 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self.label}")
        return int(self._exp[self.order - 1 - int(self._log[a])])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero(f"division by zero in {self.label}")
        if a == 0:
            return 0
        return int(self._exp[int(self._log[a]) - int(self._log[b]) + self.order - 1])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero(f"zero to a negative power in {self.label}")
            return 0
        n = self.order - 1
        return int(self._exp[(int(self._log[a]) * e) % n])

    # -- discrete logs and ordering ----------------------------------------

    def log(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"discrete log of zero in {self.label}")
        return int(self._log[a])

    def from_log(self, k: int) -> int:
        return int(self._exp[k % (self.order - 1)])

    def order_key(self, a: int) -> int:
        """Canonical element ordering: zero first, then discrete-log index."""
        return -1 if a == 0 else int(self._log[a])

    def elements(self):
        """All elements in canonical order (zero, then powers of gen)."""
        yield 0
        for k in range(self.order - 1):
            yield int(self._exp[k])

    # -- squares -------------------------------------------------------------

    def is_square(self, a: int) -> bool:
        return a == 0 or int(self._log[a]) % 2 == 0

    def sqrt(self, a: int) -> int:
        """Canonical square root (the one with the smaller discrete log)."""
        if a == 0:
            return 0
        l = int(self._log[a])
        if l % 2:
            raise NonSquare(f"{a} is not a square in {self.label}")
        return int(self._exp[l // 2])

    def nth_root_of_unity(self, n: int) -> int:
        """A primitive n-th root of unity, gen^((order-1)/n)."""
        if n <= 0 or (self.order - 1) % n:
            raise OrderNotDivisible(
                f"no primitive {n}-th root of unity in {self.label}")
        return int(self._exp[(self.order - 1) // n])

    # -- numpy tables for vectorized kernels --------------------------------

    def np_tables(self) -> dict:
        """Dense lookup tables (add, mul, neg, inv) as numpy arrays.

        Only available for orders up to PAIR_TABLE_LIMIT; the exhaustive
        search kernels index into these.
        """
        if self._np:
            return self._np
        q = self.order
        if q > PAIR_TABLE_LIMIT:
            raise FieldTooLarge(
                f"dense pair tables unavailable for order {q} > {PAIR_TABLE_LIMIT}")
        p, m = self.p, self.m
        av = np.arange(q, dtype=np.int64)
        addt = np.zeros((q, q), dtype=np.int64)
        negv = np.zeros(q, dtype=np.int64)
        ta = av.copy()
        mult = 1
        for _ in range(m):
            da = ta % p
            addt += ((da[:, None] + da[None, :]) % p) * mult
            negv += ((p - da) % p) * mult
            ta //= p
            mult *= p
        logv = self._log.astype(np.int64)
        expd = self._exp.astype(np.int64)
        mult_t = np.zeros((q, q), dtype=np.int64)
        ln = logv[1:]
        mult_t[1:, 1:] = expd[ln[:, None] + ln[None, :]]
        invv = np.zeros(q, dtype=np.int64)
        invv[1:] = expd[q - 1 - ln]
        self._np = {
            "ADD": addt.astype(np.int32),
            "MUL": mult_t.astype(np.int32),
            "NEG": negv.astype(np.int32),
            "INV": invv.astype(np.int32),
        }
        return self._np


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def _walk_tables(p: int, m: int, modulus: tuple[int, ...], gen: int,
                 step) -> FieldSpec:
    """Fill exp/log by walking v -> step[v] = gen * v from 1."""
    q = p ** m
    powers, cur = [], 1
    for _ in range(q - 1):
        powers.append(cur)
        cur = step[cur]
    exp = np.array(powers + powers, dtype=np.int32)
    log = np.full(q, -1, dtype=np.int32)
    log[exp[:q - 1]] = np.arange(q - 1, dtype=np.int32)
    if (log[1:] < 0).any():
        raise RuntimeError("generator order check failed")
    return FieldSpec(p, m, modulus, gen, exp, log)


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
    for digits in itertools.product(range(p), repeat=m):
        g = poly(fp, digits)
        if not g.is_zero and all(pow_mod(g, e, f) != one for e in cofactors):
            break
    # row k of the matrix of multiplication by g holds the digits of g X^k
    rows, row = [], g
    for _ in range(m):
        rows.append(row.coeffs + (0,) * (m - len(row.coeffs)))
        row = row * x_poly(fp) % f
    place = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // place % p
    step = (digits @ np.array(rows, dtype=np.int64) % p @ place).tolist()
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
    if not isinstance(p, int) or not _is_prime(p):
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
            modulus = next(tail + (1,)
                           for tail in itertools.product(range(p), repeat=m)
                           if is_irreducible(poly(fp, tail + (1,))))
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
