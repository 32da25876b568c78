"""Deterministic finite-field construction and arithmetic.

A field of order p^m is a :class:`FieldSpec`.  Elements are plain integers
in ``range(p**m)``: the element ``sum(c_i * w**i)`` (``w`` the class of X
modulo the defining polynomial) is encoded as ``sum(c_i * p**i)``.

Construction is reproducible.  The modulus is by default the
lexicographically least monic irreducible polynomial of degree m
(coefficient vectors compared low-degree-first; Ben-Or's test,
:func:`poly.is_irreducible`).  Multiplication by an element is an
F_p-linear map, an m x m matrix over F_p on digit vectors (X's is the
companion matrix of the modulus), and that answers the rest for every
order: the generator is the least element under the same ordering whose
matrix M has M^((q - 1)/l) != I for each prime l | q - 1, and the powers
of gen are filled by doubling, gen^(L + i) = gen^i·M^L with M^L squared
each round.  Each field builds its lookup tables once, as int64 arrays
of at most about 4q entries that :meth:`FieldSpec.vsum` and
:meth:`FieldSpec.vmul` read; the scalar operations read Python lists of
the same values with the same algorithms.  Orders above 2**20 are
rejected.

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

    EXP (4q - 3 entries) holds gen^i below 2(q - 1) and zero from there
    on, and LOG[0] = 2(q - 1), so EXP[LOG[a] + LOG[b]] = a·b with no
    branch for zero, and -a = EXP[LOG[a] + (q - 1)/2], as
    -1 = gen^((q - 1)/2).  SPREAD rewrites an element's base-p digits in
    base 4p - 3, the low ⌈m/2⌉ digits in the low bit field of an integer
    and the others in the high one, so a sum of up to four spread elements
    has no carry; RED_LO and RED_HI, of (4p - 3)^⌈m/2⌉ entries, map the
    low and the high field of such a sum to the element of its digits
    mod p.  The constructor takes gen^i, i < q - 1, and LOG as arrays and
    builds every table once, as the arrays of :meth:`np_tables`; the
    scalar operations read EXP and LOG, and for m > 1 SPREAD and the RED
    tables, as lists of the same values.  Prime fields add mod p (their
    RED tables, 4p entries, stay arrays).
    """

    __slots__ = ("p", "m", "order", "modulus", "gen", "_exp", "_log",
                 "_spread", "_red_lo", "_red_hi", "_shift", "_mask", "_np")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], gen: int,
                 exp: np.ndarray, log: np.ndarray):
        self.p = p
        self.m = m
        self.order = q = p ** m
        self.modulus = modulus
        self.gen = gen
        self._exp = exp.tolist()     # grown in place, one int object per power
        self._exp += self._exp
        self._exp += itertools.repeat(0, 2 * q - 1)
        self._log = log.tolist()
        self._shift = ((4 * p - 3) ** ((m + 1) // 2) - 1).bit_length()
        self._mask = (1 << self._shift) - 1
        EXP = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        spread, red_lo, red_hi = self._digit_tables()
        self._np = {"EXP": EXP, "LOG": log,
                    "NEG": EXP[log + (q - 1) // 2],
                    "INV": EXP[q - 1 - log],     # INV[0] = EXP[1 - q] = 0
                    "SPREAD": spread, "RED_LO": red_lo, "RED_HI": red_hi}
        if m > 1:
            self._spread, self._red_lo, self._red_hi = (
                tab.tolist() for tab in (spread, red_lo, red_hi))

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
        return self._exp[self._log[a] + (self.order - 1) // 2]

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
        """The tables as int64 arrays: EXP, LOG, NEG, SPREAD, RED_LO,
        RED_HI (prime fields too) and INV = EXP[q - 1 - LOG], with
        INV[0] = 0.  None is q x q."""
        return self._np

    def vsum(self, *terms) -> np.ndarray:
        """Elementwise sum of one to four broadcasting element arrays."""
        if not 0 < len(terms) <= 4:
            raise ValueError(f"vsum adds 1 to at most four terms, got {len(terms)}")
        tabs = self._np
        acc = tabs["SPREAD"][terms[0]]
        for term in terms[1:]:  # not +=: a later term may broadcast wider
            acc = acc + tabs["SPREAD"][term]
        return self.unspread(acc)

    def unspread(self, acc) -> np.ndarray:
        """The elements whose sums of up to four SPREAD values are `acc`."""
        tabs = self._np
        return tabs["RED_LO"][acc & self._mask] + tabs["RED_HI"][acc >> self._shift]

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcasting element arrays."""
        tabs = self._np
        return tabs["EXP"][tabs["LOG"][a] + tabs["LOG"][b]]


def digits(elems, base: int, count: int) -> np.ndarray:
    """The low `count` base-`base` digits of integers, along a new last axis."""
    place = base ** np.arange(count)
    return np.asarray(elems, dtype=np.int64)[..., None] // place % base


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def _mat_pow(mats: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(mats.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            out = out @ mats % p
        mats = mats @ mats % p
        e >>= 1
    return out


def _tables(p: int, m: int, modulus: tuple[int, ...]):
    """(gen, EXP[:q - 1], LOG) on `modulus`, from the matrices over F_p
    that multiply digit vectors (row k: the digits of the product by X^k)."""
    q = p ** m
    x_mat = np.eye(m, k=1, dtype=np.int64)      # X's matrix: the companion
    x_mat[-1] = [-c % p for c in modulus[:-1]]
    x_pows = [_mat_pow(x_mat, i, p) for i in range(m)]
    cofactors = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    # generator: least element (construction ordering) of order q - 1, 64
    # candidates at a time; candidate j is the j-th coefficient vector of
    # itertools.product(range(p), repeat=m), its digits in base p reversed
    for lo in range(1, q, 64):
        coeffs = digits(np.arange(lo, min(lo + 64, q)), p, m)[:, ::-1]
        mats = np.tensordot(coeffs, x_pows, 1) % p
        full = np.logical_and.reduce([(_mat_pow(mats, e, p) != x_pows[0])
                                      .any(axis=(1, 2)) for e in cofactors])
        if full.any():
            break
    coeffs, mat = coeffs[full.argmax()], mats[full.argmax()]
    # digits of gen^i, i < q - 1, by doubling: [L, 2L) is [0, L)·gen^L
    vecs = np.zeros((q - 1, m), dtype=np.int64)
    vecs[0, 0] = 1
    for k in range((q - 2).bit_length()):
        block = vecs[1 << k:2 << k]
        np.matmul(vecs[:len(block)], mat, out=block)
        block %= p
        mat = mat @ mat % p
    place = p ** np.arange(m)
    exp = vecs @ place
    log = np.full(q, 2 * (q - 1))
    log[exp] = np.arange(q - 1)
    if np.count_nonzero(log == 2 * (q - 1)) > 1:
        raise RuntimeError("generator order check failed")
    return int(coeffs @ place), exp, log


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
    spec = (_FIELD_CACHE.get((p, m, modulus))
            or FieldSpec(p, m, modulus, *_tables(p, m, modulus)))
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
