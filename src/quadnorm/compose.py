"""Exact relative arithmetic in the compositum of the quadratic field with
a period field, and the composition-law checks on the polynomial family.

Elements of the compositum are vectors over the period basis with
coefficients in the quadratic ring; this product basis is valid exactly
when the two discriminants are coprime, which is checked on construction.
Arithmetic runs on integer pair vectors: a ``QuadInteger`` coordinate
stores the pair (u, v) of (u + v*sqrt(d))/2, which is read directly, and
products go through the one period product ``cyclicext.period_mul``.
Coordinates of another radicand are refused where they enter.  Relative
norms and characteristic polynomials are read off one ring map onto
(Z/M)[t]/(t^2 - d), zeta -> z with Phi_q(z) = 0 (mod M) and sqrt(d) -> t,
under which the e Galois conjugates are e linear forms in the period
images (``_conjugates``): the norm is their product and the charpoly the
product of the e linear factors x - sigma^j(alpha), lifted symmetrically
with M above twice a proven bound.
The charpoly checks each coefficient against its bound and its
x^(e-1) coefficient against the trace, the sum of the coordinates.  The
bounded norm search reduces its candidates modulo two auxiliary primes
that split completely, where a relative norm is a product of e linear
forms, takes the exact norm only of the few candidates whose residues
match the target, and re-verifies a hit as the product of its conjugates
through ``period_mul``.  All of it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import comb, isqrt, prod
from operator import add

from .cyclicext import CyclicExtensionDescriptor, order_q_root, period_mul, primes_one_mod_2q
from .formclass import FormClass, _ClassTable
from .intmath import crt, cycle, kronecker, sqrt_mod_prime
from .quadfield import QuadInteger, QuadraticField, RamifiedPrimeError, fundamental_unit


class WrongNormError(ValueError):
    """The witness element does not have the required relative norm."""


class OrderViolationError(ValueError):
    """A class in the composition check does not have the required order."""


NOT_FOUND = "NOT_FOUND"


@dataclass(frozen=True)
class RelativeElement:
    ext: "RelativeExtension"
    coords: tuple[QuadInteger, ...]

    def __add__(self, other: "RelativeElement") -> "RelativeElement":
        self.ext._same(other.ext)
        return RelativeElement(
            self.ext, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "RelativeElement":
        return RelativeElement(self.ext, tuple(-a for a in self.coords))

    def __mul__(self, other: "RelativeElement") -> "RelativeElement":
        self.ext._same(other.ext)
        return self.ext._mul(self, other)

    def galois(self, i: int) -> "RelativeElement":
        return self.ext.galois_apply(i, self)

    def norm(self) -> QuadInteger:
        return self.ext.relative_norm(self)

    def height(self) -> int:
        return max(c.height() for c in self.coords)


@dataclass(frozen=True)
class RelativeCharPoly:
    """Monic degree-p^n polynomial over the quadratic ring, ascending
    coefficients (the last one is the integer 1 embedded as a scalar)."""

    coeffs: tuple[QuadInteger, ...]

    @property
    def constant(self) -> QuadInteger:
        return self.coeffs[0]

    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class FamilyFPolynomial:
    """charpoly of a witness of relative norm -eps^(p^n), constant removed."""

    body: tuple[QuadInteger, ...]  # ascending, constant slot is zero
    certified_constant: QuadInteger  # the removed constant = eps^(p^n)
    attached_class: FormClass | None
    descriptor: CyclicExtensionDescriptor
    witness_is_unit: bool


class RelativeExtension:
    """Arithmetic context for the compositum of the quadratic field with the
    period field of the descriptor."""

    def __init__(self, desc: CyclicExtensionDescriptor, F: QuadraticField):
        # the period field's disc is a power of the prime conductor q
        if F.disc % desc.q == 0:
            raise RamifiedPrimeError(f"conductor {desc.q} ramifies in disc {F.disc}")
        self.desc = desc
        self.field = F
        self.degree = desc.degree
        self._rows = desc.rows
        self._zero = QuadInteger(F.d, 0, 0)
        self._one = QuadInteger(F.d, 1, 0)

    def _same(self, other: "RelativeExtension") -> None:
        if other is not self and (other.desc is not self.desc or other.field != self.field):
            raise ValueError("elements from different extensions")

    def element(self, coords) -> RelativeElement:
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError(f"need {self.degree} coordinates")
        for c in coords:
            self._one._check(c)
        return RelativeElement(self, coords)

    def scalar(self, c: QuadInteger) -> RelativeElement:
        """Embed c from the quadratic ring: c = -c * (sum of periods)."""
        return self.element([-c] * self.degree)

    def period(self, i: int = 0) -> RelativeElement:
        coords = [self._zero] * self.degree
        coords[i % self.degree] = self._one
        return self.element(coords)

    def _mul(self, x: RelativeElement, y: RelativeElement) -> RelativeElement:
        d = self.field.d
        prod = period_mul(_pairs(x.coords), _pairs(y.coords), self._rows, d)
        return RelativeElement(self, tuple(QuadInteger(d, u, v, 2) for u, v in prod))

    def galois_apply(self, i: int, alpha: RelativeElement) -> RelativeElement:
        """Generator of the relative Galois group acts by shifting the
        period basis; coefficients in the quadratic ring are fixed."""
        self._same(alpha.ext)
        i %= self.degree
        return RelativeElement(self, alpha.coords[-i:] + alpha.coords[:-i])

    def _conjugates(self, x, pad: int = 0) -> tuple[int, int, list[int], list[int]]:
        """(M, h, us, vs) for a pair vector x: an odd M > 2 * (h + pad)^e
        and the images us[j] + vs[j]*t of 2 * sigma^j(x) under one ring map
        onto (Z/M)[t]/(t^2 - d): zeta -> z with Phi_q(z) = 0 (mod M) and
        sqrt(d) -> t (``CyclicExtensionDescriptor.ring_image``).  There
        sigma^j(x) is the linear form sum over m of x_m * P[(m + j) mod e]
        in the period images P, e^2 multiply-adds for all e forms.  Every
        period has |eta| <= f, so every conjugate of 2x is at most h = f * L
        in absolute value, with L = sum of |u_m| + |v_m| * (isqrt(d) + 1)."""
        e = self.degree
        r = isqrt(self.field.d) + 1
        h = self.desc.f * sum(abs(u) + abs(v) * r for u, v in x)
        M, P = self.desc.ring_image(2 * (h + pad) ** e)
        P = P + P
        # forms j of the u and the v parts, added up row by row: x_m
        # contributes x_m * P[m + j] to form j
        us, vs = [0] * e, [0] * e
        for m, (u, v) in enumerate(x):
            if u:
                us = [s + u * p for s, p in zip(us, P[m : m + e])]
            if v:
                vs = [s + v * p for s, p in zip(vs, P[m : m + e])]
        return M, h, us, vs

    def _pair_norm(self, x) -> tuple[int, int]:
        """Relative norm of a pair vector, as a pair: the product of the e
        conjugate forms of ``_conjugates``, lifted symmetrically from the
        basis {1, t}.  Its pair (u, v) has |u| and |v| at most h^e, so
        M > 2 * h^e makes the lift exact; a lift above it raises ArithmeticError."""
        d = self.field.d
        M, h, us, vs = self._conjugates(x)
        a, b = 1, 0  # the product so far, a + b*t
        for s, t in zip(us, vs):
            a, b = (a * s + d * b * t) % M, (a * t + b * s) % M
        # x_m maps to (u_m + v_m*t)/2 and the norm to (u + v*t)/2, so
        # a + b*t is 2^(e-1) * (u + v*t): divide by 2^(e-1) modulo M
        inv = pow(2, 1 - self.degree, M)
        a, b = a * inv % M, b * inv % M
        u, v = (a - M if 2 * a > M else a), (b - M if 2 * b > M else b)
        if max(abs(u), abs(v)) > h**self.degree:
            raise ArithmeticError(f"relative norm pair (u, v) exceeds its bound {h**self.degree}")
        return u, v

    def relative_norm(self, alpha: RelativeElement) -> QuadInteger:
        """Product of all Galois conjugates; lands in the quadratic ring."""
        self._same(alpha.ext)
        return QuadInteger(self.field.d, *self._pair_norm(_pairs(alpha.coords)), 2)

    def charpoly(self, alpha: RelativeElement) -> RelativeCharPoly:
        """Characteristic polynomial of multiplication by alpha over the
        quadratic ring: the product of the e linear factors x - sigma^j(alpha)
        over (Z/M)[t]/(t^2 - d), from the conjugate forms of
        ``_conjugates``.  Twice the coefficient of x^k is a pair (u, v)
        with |u| and |v| at most C(e, k) * h^(e-k), and these bounds add
        up to (h + 1)^e, so M > 2 * (h + 1)^e makes every lift exact.
        Raises ArithmeticError when a lifted coefficient exceeds its bound
        or the coefficient of x^(e-1) is not -Tr(alpha), the sum of the
        coordinates of alpha (each period has trace -1)."""
        self._same(alpha.ext)
        x = _pairs(alpha.coords)
        e, d = self.degree, self.field.d
        M, h, us, vs = self._conjugates(x, 1)
        half = (M + 1) // 2
        A, B = [1], [0]  # the product so far, coefficients A[k] + B[k]*t
        for u, v in zip(us, vs):  # times x - (u + v*t)/2
            a, b = u * half % M, v * half % M
            A, B = ([(c - a * y - d * b * w) % M for c, y, w in zip([0] + A, A + [0], B + [0])],
                    [(c - a * w - b * y) % M for c, y, w in zip([0] + B, A + [0], B + [0])])
        pairs = []
        for k in range(e):
            bound = comb(e, k) * h ** (e - k)
            u, v = 2 * A[k] % M, 2 * B[k] % M
            u, v = (u - M if 2 * u > M else u), (v - M if 2 * v > M else v)
            if abs(u) > bound or abs(v) > bound:
                raise ArithmeticError(f"charpoly coefficient of x^{k} exceeds its bound {bound}")
            pairs.append((u, v))
        if pairs[-1] != (sum(u for u, _ in x), sum(v for _, v in x)):
            raise ArithmeticError("charpoly coefficient of x^(e-1) is not -Tr(alpha)")
        coeffs = tuple(QuadInteger(d, u, v, 2) for u, v in pairs)
        return RelativeCharPoly(coeffs=coeffs + (self._one,))

    def default_height_candidates(self, bound: int) -> list[QuadInteger]:
        d = self.field.d
        out = []
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                out.append(QuadInteger(d, a, b, 1))
                if d % 4 == 1 and a % 2 and b % 2:
                    out.append(QuadInteger(d, a, b, 2))
        return out

    def search_norm_element(self, target: QuadInteger, bound: int):
        """First element (lexicographic coordinate order) of coefficient
        height <= bound with the exact relative norm, or NOT_FOUND.

        A residue sieve at two split primes (``_sieve``) discards every
        candidate whose norm differs from the target modulo either prime;
        only the survivors get the exact norm, and a hit is re-verified
        as the product of its e conjugates through ``period_mul``.  Since
        no true hit is discarded, the first hit is the first candidate of
        exact norm.
        """
        if bound < 0:
            raise ValueError("bound must be >= 0")
        self._one._check(target)
        pairs = _pairs(self.default_height_candidates(bound))
        want = (target.u, target.v)
        for combo in self._sieve_survivors(pairs, want):
            if self._pair_norm(combo) == want:
                cand = self.element(QuadInteger(self.field.d, u, v, 2) for u, v in combo)
                # re-verified by the other route: the conjugates' product
                norm = prod(map(cand.galois, range(1, self.degree)), start=cand)
                if norm != self.scalar(target):
                    raise ArithmeticError("witness failed its conjugate-product re-verification")
                return cand
        return NOT_FOUND

    @cached_property
    def _sieve(self) -> "_ResidueSieve":
        return _ResidueSieve(self.desc, self.field.d)

    def _sieve_survivors(self, pairs, want):
        """The vectors over ``pairs``, in ``itertools.product`` order, whose
        norm residue equals that of the pair ``want``: e linear forms per
        vector, carried along each prefix so that a vector adds only its
        last coordinate, and e - 1 products modulo M."""
        sieve, e = self._sieve, self.degree
        M, P = sieve.modulus, sieve.periods
        goal = sieve.image(want)
        imgs = [sieve.image(c) for c in pairs]
        # terms[m][i][j]: coordinate m equal to pairs[i], in the j-th form
        terms = [
            [tuple(c * P[(m + j) % e] % M for j in range(e)) for c in imgs]
            for m in range(e)
        ]
        last = terms[-1]

        def walk(depth, forms, prefix):
            if depth == e - 1:
                for i, t in enumerate(last):
                    if prod(map(add, forms, t)) % M == goal:
                        yield prefix + [pairs[i]]
                return
            for i, t in enumerate(terms[depth]):
                yield from walk(depth + 1, list(map(add, forms, t)), prefix + [pairs[i]])

        return walk(0, [0] * e, [])

    def family_polynomial(
        self, alpha: RelativeElement, attached_class: FormClass | None = None
    ) -> FamilyFPolynomial:
        """Strip the constant from the charpoly of a witness whose relative
        norm is -eps^(p^n)."""
        eps = fundamental_unit(self.field).value
        e = self.degree
        required = -(eps**e)
        got = self.relative_norm(alpha)
        if got != required:
            raise WrongNormError(f"norm {got!r} != required {required!r}")
        cp = self.charpoly(alpha)
        return FamilyFPolynomial(
            body=(self._zero,) + cp.coeffs[1:],
            certified_constant=cp.constant,  # -N(alpha) = eps^e, as e is odd
            attached_class=attached_class,
            descriptor=self.desc,
            witness_is_unit=abs(got.norm()) == 1,
        )


class _ResidueSieve:
    """The ring homomorphism from the compositum onto Z/M, M = ell_1*ell_2,
    for the first two primes ell = 1 + 2kq with (d/ell) = 1, both split
    completely in the compositum (Washington, *Introduction to Cyclotomic
    Fields*, Thm 2.13).

    Modulo each prime zeta goes to a z of order q and sqrt(d) to a root r
    of d, so the pair (u, v) goes to (u + v*r)/2 and period m to
    P[m] = sum over h in H of z^(g^m h); the conjugate sigma^j moves it to
    P[(m + j) mod e].  The relative norm of x therefore maps to the product
    over j of the linear forms sum over m of x_m * P[(m + j) mod e].
    """

    def __init__(self, desc: CyclicExtensionDescriptor, d: int):
        q = desc.q
        primes = list(islice((ell for ell in primes_one_mod_2q(q) if kronecker(d, ell) == 1), 2))
        zs = [order_q_root(q, ell, ell) for ell in primes]
        self.primes = tuple(primes)
        self.modulus = prod(primes)
        self.periods = desc.period_images(crt(zs, primes), self.modulus)
        self._root = crt([sqrt_mod_prime(d, ell) for ell in primes], primes)
        self._half = (self.modulus + 1) // 2

    def image(self, pair: tuple[int, int]) -> int:
        """(u + v*sqrt(d))/2 modulo M."""
        u, v = pair
        return (u + v * self._root) * self._half % self.modulus


def _pairs(coords) -> list[tuple[int, int]]:
    """The stored pairs (u, v) of quadratic integers (u + v*sqrt(d))/2."""
    return [(c.u, c.v) for c in coords]


@dataclass(frozen=True)
class CompositionCheck:
    constant_identity: bool
    class_correspondence: bool
    passed: bool


def composition_check(
    P: FamilyFPolynomial, Q: FamilyFPolynomial, W: FamilyFPolynomial
) -> CompositionCheck:
    """Constant-term algebra and class correspondence for a composed pair.

    P and Q carry classes of full order p^n whose product must again have
    order p^n and must be the class attached to the witness polynomial W.
    Orders and the product are taken by the wide law of the class table of
    P's discriminant; a Q of another discriminant raises
    ``DiscriminantMismatchError``.
    """
    if P.attached_class is None or Q.attached_class is None or W.attached_class is None:
        raise ValueError("all three polynomials need attached classes")
    e = P.descriptor.degree
    D = P.attached_class.disc
    table = _ClassTable(D)
    rep, mul = table.law("wide")
    one, h = rep(table.identity), len(table.classes)
    pq = (P.attached_class, Q.attached_class)
    if any(len(cycle(rep(table.index_of(c)), mul, one, h)) != e for c in pq):
        raise OrderViolationError("attached classes must have order p^n")
    product = mul(*(rep(table.index_of(c)) for c in pq))
    if len(cycle(product, mul, one, h)) != e:
        raise OrderViolationError("product class does not have order p^n")
    lhs = P.certified_constant * Q.certified_constant
    rhs = W.certified_constant * W.certified_constant
    constant_ok = lhs == rhs
    class_ok = W.attached_class.disc == D and product == rep(table.index_of(W.attached_class))
    return CompositionCheck(
        constant_identity=constant_ok,
        class_correspondence=class_ok,
        passed=constant_ok and class_ok,
    )
