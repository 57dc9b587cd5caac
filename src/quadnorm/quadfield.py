"""Exact arithmetic of real quadratic fields.

Discriminants, prime splitting, the rho step on form triples (the one
continued-fraction step, which ``formclass`` also walks), fundamental units
from one period of it, and reduction into residue fields at odd unramified
primes.  No floating point is used: an element of the ring of integers is
kept as the integer pair (u, v) meaning (u + v*sqrt(d))/2 (``QuadInteger``),
with (a + b*sqrt(d)) / den, den 1 or 2, read out in lowest terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .intmath import (
    is_prime,
    is_squarefree,
    kronecker,
    power,
    sqrt_mod_prime,
)


class NonSquarefreeError(ValueError):
    """d has a square factor."""


class OutOfRangeError(ValueError):
    """d <= 1, or d above MAX_RADICAND."""


class NotPrimeError(ValueError):
    pass


class RamifiedPrimeError(ValueError):
    """A prime or conductor the computation needs unramified divides the
    field discriminant."""


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


# Largest radicand of any field.  ``is_squarefree`` factors d by trial
# division, O(sqrt(d)): at 99999999999973, the largest prime below the
# ceiling, ``make_field`` took 0.53 s on a 2-core host (best of three).
MAX_RADICAND = 10**14


def make_field(d: int) -> QuadraticField:
    if d <= 1:
        raise OutOfRangeError(f"radicand must exceed 1, got {d}")
    if d > MAX_RADICAND:
        raise OutOfRangeError(f"radicand {d} is above the radicand ceiling {MAX_RADICAND}")
    if not is_squarefree(d):
        raise NonSquarefreeError(f"{d} is not squarefree")
    half = d % 4 == 1
    return QuadraticField(d=d, disc=d if half else 4 * d, half_basis=half)


class QuadInteger:
    """An element (u + v*sqrt(d))/2 of the ring of integers of Q(sqrt(d)).

    The pair (u, v) is stored, in the convention of Cohen, GTM 138, §5.2:
    u = v (mod 2), and both are even unless d = 1 (mod 4).  ``a``, ``b``
    and ``den`` read it in lowest terms as (a + b*sqrt(d)) / den, den = 2
    exactly when u and v are odd.  The constructor takes those lowest-terms
    coordinates.  Instances are immutable, so equality is pair-wise.
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, a: int, b: int, den: int = 1):
        if den not in (1, 2):
            raise ValueError("den must be 1 or 2")
        if den == 1:
            a, b = 2 * a, 2 * b
        elif not _integral(d, a, b):
            raise ValueError(f"({a}+{b}*sqrt({d}))/2 is not integral")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", a)
        object.__setattr__(self, "v", b)

    @property
    def den(self) -> int:
        return 2 if self.u % 2 else 1

    @property
    def a(self) -> int:
        return self.u if self.u % 2 else self.u // 2

    @property
    def b(self) -> int:
        return self.v if self.u % 2 else self.v // 2

    def __setattr__(self, *args):
        raise AttributeError("QuadInteger is immutable")

    def _check(self, other: "QuadInteger") -> None:
        if self.d != other.d:
            raise ValueError("mixed radicands")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadInteger):
            return NotImplemented
        return (self.d, self.u, self.v) == (other.d, other.u, other.v)

    def __hash__(self) -> int:
        return hash((self.d, self.u, self.v))

    def __repr__(self) -> str:
        core = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return f"({core})/2" if self.den == 2 else f"({core})"

    def __add__(self, other: "QuadInteger") -> "QuadInteger":
        self._check(other)
        return QuadInteger(self.d, self.u + other.u, self.v + other.v, 2)

    def __sub__(self, other: "QuadInteger") -> "QuadInteger":
        self._check(other)
        return QuadInteger(self.d, self.u - other.u, self.v - other.v, 2)

    def __neg__(self) -> "QuadInteger":
        return QuadInteger(self.d, -self.u, -self.v, 2)

    def __mul__(self, other: "QuadInteger") -> "QuadInteger":
        self._check(other)
        u = (self.u * other.u + self.d * self.v * other.v) // 2
        v = (self.u * other.v + self.v * other.u) // 2
        return QuadInteger(self.d, u, v, 2)

    def scale(self, k: int) -> "QuadInteger":
        return QuadInteger(self.d, k * self.u, k * self.v, 2)

    def divide_exact(self, k: int) -> "QuadInteger":
        """Exact division by a rational integer; raises if not divisible."""
        u, v = self.u // k, self.v // k
        if self.u % k or self.v % k or not _integral(self.d, u, v):
            raise ArithmeticError(f"{self!r} not divisible by {k}")
        return QuadInteger(self.d, u, v, 2)

    def conjugate(self) -> "QuadInteger":
        return QuadInteger(self.d, self.u, -self.v, 2)

    def norm(self) -> int:
        return (self.u * self.u - self.d * self.v * self.v) // 4

    def trace(self) -> int:
        return self.u

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
        """Sign of the real value under sqrt(d) > 0, for d > 1 not a square."""
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"sqrt({self.d}) is not irrational")
        su, sv = (self.u > 0) - (self.u < 0), (self.v > 0) - (self.v < 0)
        if su * sv >= 0:
            return su or sv
        # opposite signs: the larger of |u| and |v|*sqrt(d) decides
        return su if self.u * self.u > self.d * self.v * self.v else sv

    def is_greater_than_one(self) -> bool:
        return QuadInteger(self.d, self.u - 2, self.v, 2).sign() > 0


def _integral(d: int, u: int, v: int) -> bool:
    """Is (u + v*sqrt(d))/2 in the ring of integers of Q(sqrt(d))?"""
    return (u - v) % 2 == 0 and (u % 2 == 0 or d % 4 == 1)


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


def _rho(b: int, c: int, D: int, s: int) -> tuple[int, int, int]:
    """The rho step on triples: the right neighbour of any (a, b, c) of
    discriminant D, with s = isqrt(D)."""
    ac = abs(c)
    if ac * ac > D:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = s - (s + b) % (2 * ac)
    return c, r, (r * r - D) // (4 * c)


def fundamental_unit(F: QuadraticField) -> FundamentalUnit:
    """Smallest unit > 1, by one period of the rho walk of theta.

    With D the field discriminant and P0 the largest integer below sqrt(D)
    of the parity of D, theta = (P0 + sqrt(D))/2 is reduced (theta > 1 and
    -1 < theta' < 0) and Z[theta] is the ring of integers, so units outside
    Z[sqrt(d)] are found.  theta is (b + sqrt(D))/(2|c|) at the triple
    ((P0^2 - D)/4, P0, 1), and a rho step (., b, c) -> (c, r, .) is a step
    of its purely periodic continued fraction, of partial quotient
    (b + r)/(2|c|) (Buchmann-Vollmer, *Binary Quadratic Forms*, ch. 6).  One
    period, of length l, ends at the first b = P0, |c| = 1: the start triple
    (a, b, c) for even l, its negation (-a, b, -c) for odd l.  Then
    eps = A_(l-1) - B_(l-1)*theta' = (2*A_(l-1) - P0*B_(l-1) + B_(l-1)*sqrt(D))/2,
    of norm (-1)^l.
    """
    D = F.disc
    s = isqrt(D)
    P0 = s - (s - D) % 2
    b, c = P0, 1
    A, A1 = 1, 0  # A_(i-1), A_(i-2)
    B, B1 = 0, 1
    while True:
        a, r, c = _rho(b, c, D, s)
        x, b = (b + r) // (2 * abs(a)), r  # a is the old c, x the quotient
        A, A1 = x * A + A1, A
        B, B1 = x * B + B1, B
        if b == P0 and abs(c) == 1:
            break
    # the pair of eps, with sqrt(D) = 2*sqrt(d) when D = 4d
    eps = QuadInteger(F.d, 2 * A - P0 * B, B if F.half_basis else 2 * B, 2)
    n = eps.norm()
    if abs(n) != 1:
        raise ArithmeticError(f"rho walk produced a non-unit for d={F.d}")
    if not eps.is_greater_than_one():
        raise ArithmeticError(f"unit normalization failed for d={F.d}")
    return FundamentalUnit(value=eps, unit_norm=n)


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

    def _mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        """(x0 + x1*w)(y0 + y1*w) with w^2 = d, on coefficient pairs mod q."""
        q = self.q
        return (x[0] * y[0] + x[1] * y[1] * self.dmod) % q, (x[0] * y[1] + x[1] * y[0]) % q

    def __mul__(self, other: "ResidueFieldElement") -> "ResidueFieldElement":
        if (self.q, self.dmod, self.root) != (other.q, other.dmod, other.root):
            raise ValueError("elements of different residue fields")
        c0, c1 = self._mul((self.c0, self.c1), (other.c0, other.c1))
        return ResidueFieldElement(self.q, c0, c1, self.dmod, self.root)

    def __pow__(self, k: int) -> "ResidueFieldElement":
        if k < 0:
            raise ValueError("negative powers not needed")
        c0, c1 = power((self.c0, self.c1), k, self._mul, (1, 0))
        return ResidueFieldElement(self.q, c0, c1, self.dmod, self.root)

    def is_one(self) -> bool:
        return self.c0 == 1 and self.c1 == 0


def reduce_mod_prime(
    F: QuadraticField, x: QuadInteger, q: int, which_root: int | None = None
) -> ResidueFieldElement:
    """Image of x in the residue field of a prime of the field above q.

    q must be an odd prime unramified in the field.  For split q,
    ``which_root`` picks the square root of d mod q that defines the prime
    (default: the smaller root); inert q refuses one, as d has no root there.
    """
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q == 2:
        raise EvenPrimeError("q = 2 is not supported")
    if F.disc % q == 0:
        raise RamifiedPrimeError(f"{q} ramifies (divides {F.disc})")
    if x.d != F.d:
        raise ValueError("element does not belong to the field")
    half = (q + 1) // 2  # the inverse of 2 mod q
    if which_root is not None:
        root = which_root % q
        if root * root % q != F.d % q:
            raise ValueError(f"{which_root} is not a square root of {F.d} mod {q}")
    elif kronecker(F.disc, q) == -1:
        return ResidueFieldElement(q, x.u * half % q, x.v * half % q, F.d % q, None)
    else:
        root = sqrt_mod_prime(F.d, q)
    c0 = (x.u + x.v * root) * half % q
    return ResidueFieldElement(q, c0, 0, F.d % q, root)


def split_roots(F: QuadraticField, q: int) -> tuple[int, int]:
    """The two square roots of d modulo a split odd prime q, ascending.  The
    root's own check refuses an inert q, so a caller that has read the
    symbol already does not pay for it again."""
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if F.disc % q == 0:
        raise RamifiedPrimeError(f"{q} ramifies (divides {F.disc})")
    r0 = sqrt_mod_prime(F.d, q)  # refuses q = 2 and a d that is no square mod q
    return r0, q - r0
