"""Exact arithmetic of real quadratic fields.

Discriminants, prime splitting, fundamental units via the integer PQa
continued-fraction algorithm, and reduction into residue fields at odd
unramified primes.  No floating point is used anywhere: elements are kept
as integer triples (a, b, den) meaning (a + b*sqrt(d)) / den.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt

from .intmath import (
    divisors,
    floor_quadsurd,
    is_prime,
    is_squarefree,
    kronecker,
    power,
    sqrt_mod_prime,
)


class NonSquarefreeError(ValueError):
    """d has a square factor."""


class OutOfRangeError(ValueError):
    """d <= 1."""


class NotPrimeError(ValueError):
    pass


class RamifiedPrimeError(ValueError):
    """Residue reduction requested at a prime dividing the discriminant."""


class EvenPrimeError(ValueError):
    """Residue reduction requested at q = 2."""


class SplittingType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadraticField:
    """The real quadratic field of squarefree radicand d > 1."""

    d: int
    disc: int
    half_basis: bool  # True when (1 + sqrt(d))/2 is integral, i.e. d = 1 mod 4

    def __repr__(self) -> str:
        return f"QuadraticField(d={self.d}, disc={self.disc})"


def make_field(d: int) -> QuadraticField:
    if d <= 1:
        raise OutOfRangeError(f"radicand must exceed 1, got {d}")
    if not is_squarefree(d):
        raise NonSquarefreeError(f"{d} is not squarefree")
    half = d % 4 == 1
    return QuadraticField(d=d, disc=d if half else 4 * d, half_basis=half)


class QuadInteger:
    """An element (a + b*sqrt(d)) / den of the ring of integers of Q(sqrt(d)).

    den is 1 or 2; den = 2 only occurs for d = 1 (mod 4) with a, b both odd.
    Instances are immutable and normalized, so equality is coordinate-wise.
    """

    __slots__ = ("d", "a", "b", "den")

    def __init__(self, d: int, a: int, b: int, den: int = 1):
        if den not in (1, 2):
            raise ValueError("den must be 1 or 2")
        if den == 2:
            if a % 2 == 0 and b % 2 == 0:
                a //= 2
                b //= 2
                den = 1
            elif d % 4 != 1 or (a - b) % 2 != 0:
                raise ValueError(f"({a}+{b}*sqrt({d}))/2 is not integral")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("QuadInteger is immutable")

    def _check(self, other: "QuadInteger") -> None:
        if self.d != other.d:
            raise ValueError("mixed radicands")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadInteger):
            return NotImplemented
        return (self.d, self.a, self.b, self.den) == (other.d, other.a, other.b, other.den)

    def __hash__(self) -> int:
        return hash((self.d, self.a, self.b, self.den))

    def __repr__(self) -> str:
        core = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return f"({core})/2" if self.den == 2 else f"({core})"

    def __add__(self, other: "QuadInteger") -> "QuadInteger":
        self._check(other)
        if self.den == other.den:
            return QuadInteger(self.d, self.a + other.a, self.b + other.b, self.den)
        x, y = (self, other) if self.den == 2 else (other, self)
        return QuadInteger(self.d, x.a + 2 * y.a, x.b + 2 * y.b, 2)

    def __sub__(self, other: "QuadInteger") -> "QuadInteger":
        return self + (-other)

    def __neg__(self) -> "QuadInteger":
        return QuadInteger(self.d, -self.a, -self.b, self.den)

    def __mul__(self, other: "QuadInteger") -> "QuadInteger":
        self._check(other)
        a = self.a * other.a + self.b * other.b * self.d
        b = self.a * other.b + self.b * other.a
        den = self.den * other.den
        while den > 1 and a % 2 == 0 and b % 2 == 0:
            a //= 2
            b //= 2
            den //= 2
        if den == 4:
            raise ArithmeticError("non-integral product; inputs were not integral")
        return QuadInteger(self.d, a, b, den)

    def scale(self, k: int) -> "QuadInteger":
        return QuadInteger(self.d, k * self.a, k * self.b, self.den)

    def divide_exact(self, k: int) -> "QuadInteger":
        """Exact division by a rational integer; raises if not divisible."""
        a, b, den = self.a, self.b, self.den
        if den == 1 and (a % 2 or b % 2) and k % 2 == 0 and self.d % 4 == 1:
            # allow e.g. (1 + sqrt(5)) / 2 via den promotion
            a, b, den = 2 * a, 2 * b, 2
        if a % k or b % k:
            raise ArithmeticError(f"{self!r} not divisible by {k}")
        return QuadInteger(self.d, a // k, b // k, den)

    def conjugate(self) -> "QuadInteger":
        return QuadInteger(self.d, self.a, -self.b, self.den)

    def norm(self) -> int:
        n = self.a * self.a - self.b * self.b * self.d
        q, r = divmod(n, self.den * self.den)
        if r:
            raise ArithmeticError("norm is not a rational integer")
        return q

    def trace(self) -> int:
        q, r = divmod(2 * self.a, self.den)
        if r:
            raise ArithmeticError("trace is not a rational integer")
        return q

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def inverse(self) -> "QuadInteger":
        n = self.norm()
        if abs(n) != 1:
            raise ArithmeticError("only units are invertible in the ring")
        return self.conjugate().scale(n)

    def __pow__(self, k: int) -> "QuadInteger":
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), operator.mul, QuadInteger(self.d, 1, 0))

    def height(self) -> int:
        return max(abs(self.a), abs(self.b))

    def sign(self) -> int:
        """Sign of the real value under sqrt(d) > 0."""
        a, b = self.a, self.b
        if a >= 0 and b >= 0:
            return 1 if (a or b) else 0
        if a <= 0 and b <= 0:
            return -1 if (a or b) else 0
        lhs = a * a
        rhs = b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def is_greater_than_one(self) -> bool:
        shifted = QuadInteger(self.d, self.a - self.den, self.b, 1)
        return shifted.sign() > 0


def one(F: QuadraticField) -> QuadInteger:
    return QuadInteger(F.d, 1, 0)


@dataclass(frozen=True)
class FundamentalUnit:
    value: QuadInteger
    unit_norm: int


def splitting_type(F: QuadraticField, ell: int) -> SplittingType:
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    k = kronecker(F.disc, ell)
    if k == 1:
        return SplittingType.SPLIT
    if k == -1:
        return SplittingType.INERT
    return SplittingType.RAMIFIED


def fundamental_unit(F: QuadraticField) -> FundamentalUnit:
    """Smallest unit > 1, by the PQa continued-fraction expansion.

    The expansion target is (s + sqrt(D))/2 with D the field discriminant
    and s its parity, which is sqrt(d) for d = 2, 3 (mod 4) and
    (1 + sqrt(d))/2 otherwise, so units outside Z[sqrt(d)] are found.
    Period detection is by repetition of the integer state (P, Q).
    """
    D = F.disc
    P, Q = D % 2, 2
    seen: dict[tuple[int, int], int] = {}
    hist: list[tuple[int, int]] = []  # (A_{i-1}, B_{i-1}) at state index i
    A2, A1 = 0, 1
    B2, B1 = 1, 0
    i = 0
    while (P, Q) not in seen:
        seen[(P, Q)] = i
        hist.append((A1, B1))
        a = floor_quadsurd(P, Q, D)
        A2, A1 = A1, a * A1 + A2
        B2, B1 = B1, a * B1 + B2
        P = a * Q - P
        Q = (D - P * P) // Q
        i += 1
    i0 = seen[(P, Q)]
    # theta_m = (B_{m-1}*s0 - 2*A_{m-1} + B_{m-1}*sqrt(D)) / 2 with s0 = D mod 2;
    # the quotient theta_j / theta_{i0} over one period is a unit of norm +-1.
    s0 = D % 2
    Ai, Bi = hist[i0]
    Aj, Bj = A1, B1
    tai, tbi = Bi * s0 - 2 * Ai, Bi
    taj, tbj = Bj * s0 - 2 * Aj, Bj
    x = taj * tai - tbj * tbi * D
    y = tbj * tai - taj * tbi
    z = tai * tai - tbi * tbi * D
    if D != F.d:  # D = 4d, sqrt(D) = 2*sqrt(d)
        y *= 2
    if z < 0:
        x, y, z = -x, -y, -z
    g = gcd(gcd(abs(x), abs(y)), z)
    x, y, z = x // g, y // g, z // g
    if z not in (1, 2):
        raise ArithmeticError(f"unit denominator {z} out of range for d={F.d}")
    u = QuadInteger(F.d, x, y, z)
    candidates = [u, -u, u.conjugate(), -u.conjugate()]
    big = [c for c in candidates if c.is_greater_than_one()]
    if len(big) != 1:
        raise ArithmeticError(f"unit normalization failed for d={F.d}")
    eps = big[0]
    n = eps.norm()
    if abs(n) != 1:
        raise ArithmeticError(f"PQa produced a non-unit for d={F.d}")
    return FundamentalUnit(value=eps, unit_norm=n)


def brute_force_unit(F: QuadraticField, y_max: int) -> QuadInteger | None:
    """Pell-style minimum unit with sqrt(d)-coordinate at most y_max, or None.

    Independent slow path used to cross-check the continued-fraction unit:
    scans y = 1, 2, ... and returns the first (x + y*sqrt(d))/den with
    norm +-1, which is the fundamental unit whenever one exists below the
    bound.
    """
    d = F.d
    for y in range(1, y_max + 1):
        dy2 = d * y * y
        candidates = []
        for target in (dy2 + 1, dy2 - 1):
            if target >= 0:
                x = isqrt(target)
                if x * x == target:
                    candidates.append(QuadInteger(d, x, y))
        if F.half_basis and y % 2 == 1:
            # half-integer units (x + y*sqrt(d))/2 with x, y odd
            for target in (dy2 + 4, dy2 - 4):
                if target >= 0:
                    x = isqrt(target)
                    if x * x == target and x % 2 == 1:
                        candidates.append(QuadInteger(d, x, y, 2))
        if candidates:
            # smallest value wins; units' coordinates grow with the power,
            # so the first y with a hit carries the fundamental unit
            best = candidates[0]
            for c in candidates[1:]:
                if (best - c).sign() > 0:
                    best = c
            return best
    return None


@dataclass(frozen=True)
class ResidueFieldElement:
    """c0 + c1*w in F_q[w]/(w^2 - d) for inert q, or c0 in F_q for split q.

    For split q the chosen square root of d mod q is recorded in ``root``
    and c1 is 0.
    """

    q: int
    c0: int
    c1: int
    dmod: int
    root: int | None = None

    def _check(self, other: "ResidueFieldElement") -> None:
        if (self.q, self.dmod, self.root) != (other.q, other.dmod, other.root):
            raise ValueError("elements of different residue fields")

    def __mul__(self, other: "ResidueFieldElement") -> "ResidueFieldElement":
        self._check(other)
        q = self.q
        c0 = (self.c0 * other.c0 + self.c1 * other.c1 * self.dmod) % q
        c1 = (self.c0 * other.c1 + self.c1 * other.c0) % q
        return ResidueFieldElement(q, c0, c1, self.dmod, self.root)

    def __pow__(self, k: int) -> "ResidueFieldElement":
        if k < 0:
            raise ValueError("negative powers not needed")
        one = ResidueFieldElement(self.q, 1, 0, self.dmod, self.root)
        return power(self, k, operator.mul, one)

    def is_one(self) -> bool:
        return self.c0 == 1 and self.c1 == 0

    def multiplicative_order_dividing(self, m: int) -> int:
        """Smallest k dividing m with self**k = 1; raises if none divides."""
        for k in divisors(m):
            if (self**k).is_one():
                return k
        raise ArithmeticError(f"order does not divide {m}")


def reduce_mod_prime(
    F: QuadraticField, x: QuadInteger, q: int, which_root: int | None = None
) -> ResidueFieldElement:
    """Image of x in the residue field of a prime of the field above q.

    q must be an odd prime unramified in the field.  For split q,
    ``which_root`` picks the square root of d mod q that defines the prime
    (default: the smaller root).
    """
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q == 2:
        raise EvenPrimeError("q = 2 is not supported")
    if F.disc % q == 0:
        raise RamifiedPrimeError(f"{q} ramifies (divides {F.disc})")
    if x.d != F.d:
        raise ValueError("element does not belong to the field")
    inv_den = pow(x.den, -1, q)
    if kronecker(F.disc, q) == -1:
        c0 = x.a * inv_den % q
        c1 = x.b * inv_den % q
        return ResidueFieldElement(q, c0, c1, F.d % q, None)
    r0 = sqrt_mod_prime(F.d, q)
    roots = sorted({r0, (q - r0) % q})
    if which_root is None:
        root = roots[0]
    else:
        root = which_root % q
        if root * root % q != F.d % q:
            raise ValueError(f"{which_root} is not a square root of {F.d} mod {q}")
    c0 = (x.a + x.b * root) * inv_den % q
    return ResidueFieldElement(q, c0, 0, F.d % q, root)


def split_roots(F: QuadraticField, q: int) -> tuple[int, int]:
    """The two square roots of d modulo a split odd prime q, ascending."""
    if splitting_type(F, q) is not SplittingType.SPLIT:
        raise ValueError(f"{q} does not split")
    r0 = sqrt_mod_prime(F.d, q)
    pair = sorted({r0, (q - r0) % q})
    if len(pair) == 1:  # cannot happen for odd q with q not dividing d
        raise ArithmeticError("degenerate root pair")
    return pair[0], pair[1]
