"""Exact relative arithmetic in the compositum of the quadratic field with
a period field, and the composition-law checks on the polynomial family.

Elements of the compositum are integer vectors over the period basis with
coefficients in the quadratic ring; this product basis is valid exactly
when the two discriminants are coprime, which is checked on construction.
Relative norms, Galois action and characteristic polynomials are all exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .cyclicext import CyclicExtensionDescriptor
from .formclass import FormClass, principal_class, sign_class, wide_rep
from .intmath import element_order, is_prime
from .quadfield import QuadInteger, QuadraticField, fundamental_unit


class WrongNormError(ValueError):
    """The witness element does not have the required relative norm."""


class OrderViolationError(ValueError):
    """A class in the composition check does not have the required order."""


class IncompatibleBasisError(ValueError):
    """disc of the period field and of the quadratic field share a factor."""


NOT_FOUND = "NOT_FOUND"
_MAX_CLASS_ORDER = 10_000  # composition_check gives up on larger class orders


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

    def is_scalar(self) -> bool:
        return all(c == self.coords[0] for c in self.coords)

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
        disc_cyclic = desc.q  # conductor; its powers carry the whole disc
        if gcd(disc_cyclic, F.disc) != 1:
            raise IncompatibleBasisError(
                f"conductor {desc.q} shares a factor with disc {F.disc}"
            )
        self.desc = desc
        self.field = F
        self.degree = desc.degree
        self._T = desc.struct_constants
        self._zero = QuadInteger(F.d, 0, 0)
        self._one = QuadInteger(F.d, 1, 0)

    def _same(self, other: "RelativeExtension") -> None:
        if other is not self and (other.desc is not self.desc or other.field != self.field):
            raise ValueError("elements from different extensions")

    def element(self, coords) -> RelativeElement:
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError(f"need {self.degree} coordinates")
        return RelativeElement(self, coords)

    def zero(self) -> RelativeElement:
        return self.element([self._zero] * self.degree)

    def scalar(self, c: QuadInteger) -> RelativeElement:
        """Embed c from the quadratic ring: c = -c * (sum of periods)."""
        return self.element([-c] * self.degree)

    def period(self, i: int = 0) -> RelativeElement:
        coords = [self._zero] * self.degree
        coords[i % self.degree] = self._one
        return self.element(coords)

    def from_int(self, k: int) -> RelativeElement:
        return self.scalar(QuadInteger(self.field.d, k, 0))

    def _mul(self, x: RelativeElement, y: RelativeElement) -> RelativeElement:
        e = self.degree
        T = self._T
        d = self.field.d
        # accumulate (a, b) numerators over a common denominator of 2
        acc_a = [0] * e
        acc_b = [0] * e
        for i in range(e):
            xi = x.coords[i]
            if xi.a == 0 and xi.b == 0:
                continue
            Ti = T[i]
            for j in range(e):
                yj = y.coords[j]
                if yj.a == 0 and yj.b == 0:
                    continue
                pa = xi.a * yj.a + xi.b * yj.b * d
                pb = xi.a * yj.b + xi.b * yj.a
                scale = 4 // (xi.den * yj.den)
                pa *= scale
                pb *= scale
                row = Ti[j]
                for k in range(e):
                    t = row[k]
                    if t:
                        acc_a[k] += t * pa
                        acc_b[k] += t * pb
        coords = []
        for k in range(e):
            a, b = acc_a[k], acc_b[k]
            if a % 4 == 0 and b % 4 == 0:
                coords.append(QuadInteger(d, a // 4, b // 4, 1))
            elif a % 2 == 0 and b % 2 == 0:
                coords.append(QuadInteger(d, a // 2, b // 2, 2))
            else:
                raise ArithmeticError("non-integral product coordinate")
        return RelativeElement(self, tuple(coords))

    def galois_apply(self, i: int, alpha: RelativeElement) -> RelativeElement:
        """Generator of the relative Galois group acts by shifting the
        period basis; coefficients in the quadratic ring are fixed."""
        self._same(alpha.ext)
        e = self.degree
        i %= e
        coords = [None] * e
        for k in range(e):
            coords[(k + i) % e] = alpha.coords[k]
        return RelativeElement(self, tuple(coords))

    def relative_norm(self, alpha: RelativeElement) -> QuadInteger:
        """Product of all Galois conjugates; lands in the quadratic ring."""
        self._same(alpha.ext)
        acc = alpha
        for i in range(1, self.degree):
            acc = self._mul(acc, self.galois_apply(i, alpha))
        if not acc.is_scalar():
            raise ArithmeticError("norm did not come out scalar")
        return -acc.coords[0]

    def _mult_matrix(self, alpha: RelativeElement) -> list[list[QuadInteger]]:
        e = self.degree
        cols = [self._mul(alpha, self.period(j)).coords for j in range(e)]
        return [[cols[j][i] for j in range(e)] for i in range(e)]

    def charpoly(self, alpha: RelativeElement) -> RelativeCharPoly:
        """Characteristic polynomial of multiplication by alpha over the
        quadratic ring (Faddeev-LeVerrier, exact divisions asserted)."""
        self._same(alpha.ext)
        e = self.degree
        M = self._mult_matrix(alpha)
        zero, one_ = self._zero, self._one

        def mat_mul(A, B):
            out = []
            for i in range(e):
                row = []
                for j in range(e):
                    s = zero
                    for k in range(e):
                        s = s + A[i][k] * B[k][j]
                    row.append(s)
                out.append(row)
            return out

        def trace(A):
            s = zero
            for i in range(e):
                s = s + A[i][i]
            return s

        cs = [one_]  # leading coefficient
        Mk = M
        c = trace(Mk).scale(-1)
        cs.append(c)
        for k in range(2, e + 1):
            shifted = [
                [Mk[i][j] + (c if i == j else zero) for j in range(e)] for i in range(e)
            ]
            Mk = mat_mul(M, shifted)
            c = trace(Mk).scale(-1).divide_exact(k)
            cs.append(c)
        coeffs = tuple(reversed(cs))  # ascending
        expected = self.relative_norm(alpha)
        got = coeffs[0] if e % 2 == 0 else -coeffs[0]
        if got != expected:
            raise ArithmeticError("charpoly constant contradicts the norm")
        return RelativeCharPoly(coeffs=coeffs)

    def default_height_candidates(self, bound: int) -> list[QuadInteger]:
        d = self.field.d
        out = []
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                out.append(QuadInteger(d, a, b, 1))
                if d % 4 == 1 and a % 2 and b % 2:
                    out.append(QuadInteger(d, a, b, 2))
        out.sort(key=lambda c: (c.a, c.b, c.den))
        return out

    def search_norm_element(self, target: QuadInteger, bound: int):
        """First element (lexicographic coordinate order) of coefficient
        height <= bound with the exact relative norm, or NOT_FOUND.

        A residue filter modulo a small auxiliary prime discards most
        candidates before the exact norm is computed; any hit is re-verified
        exactly, so the filter cannot change the result.
        """
        if bound < 0:
            raise ValueError("bound must be >= 0")
        scalars = self.default_height_candidates(bound)
        flt = _NormFilter(self, target)
        for combo in itertools.product(scalars, repeat=self.degree):
            if not flt.may_match(combo):
                continue
            cand = self.element(combo)
            if self.relative_norm(cand) == target:
                # independent re-verification: charpoly constant is (-1)^deg * norm
                chk = self.charpoly(cand)
                expected = -target if self.degree % 2 else target
                if chk.constant != expected:
                    raise ArithmeticError("witness failed charpoly re-verification")
                return cand
        return NOT_FOUND

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
        constant = cp.constant  # equals eps^e since e is odd
        if constant != eps**e:
            raise ArithmeticError("sign normalization failed")
        body = (self._zero,) + cp.coeffs[1:]
        alpha_norm_abs = abs(self._abs_norm(alpha))
        return FamilyFPolynomial(
            body=body,
            certified_constant=constant,
            attached_class=attached_class,
            descriptor=self.desc,
            witness_is_unit=alpha_norm_abs == 1,
        )

    def _abs_norm(self, alpha: RelativeElement) -> int:
        return self.relative_norm(alpha).norm()


class _NormFilter:
    """Norm computation modulo an auxiliary prime, used as a search sieve."""

    def __init__(self, ext: RelativeExtension, target: QuadInteger):
        self.ext = ext
        d = ext.field.d
        r = 5
        while not is_prime(r) or d % r == 0 or r == ext.desc.q or r == 2:
            r += 1
        self.r = r
        self.e = ext.degree
        self.T = ext.desc.struct_constants
        self.dmod = d % r
        inv2 = pow(2, -1, r)
        self.inv_den = {1: 1, 2: inv2}
        self.target = self._reduce_quad(target)

    def _reduce_quad(self, x: QuadInteger) -> tuple[int, int]:
        s = self.inv_den[x.den]
        return (x.a * s % self.r, x.b * s % self.r)

    def _mul_vec(self, u, v):
        e, r, dm = self.e, self.r, self.dmod
        oa = [0] * e
        ob = [0] * e
        for i in range(e):
            ua, ub = u[i]
            if ua == 0 and ub == 0:
                continue
            Ti = self.T[i]
            for j in range(e):
                va, vb = v[j]
                if va == 0 and vb == 0:
                    continue
                pa = (ua * va + ub * vb * dm) % r
                pb = (ua * vb + ub * va) % r
                row = Ti[j]
                for k in range(e):
                    t = row[k]
                    if t:
                        oa[k] = (oa[k] + t * pa) % r
                        ob[k] = (ob[k] + t * pb) % r
        return list(zip(oa, ob))

    def may_match(self, combo) -> bool:
        vec = [self._reduce_quad(c) for c in combo]
        acc = vec
        for i in range(1, self.e):
            shifted = [vec[(k - i) % self.e] for k in range(self.e)]
            acc = self._mul_vec(acc, shifted)
        first = acc[0]
        if any(c != first for c in acc):
            return True  # cannot reject safely; exact path decides
        r = self.r
        got = ((-first[0]) % r, (-first[1]) % r)
        return got == self.target


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
    """
    if P.attached_class is None or Q.attached_class is None or W.attached_class is None:
        raise ValueError("all three polynomials need attached classes")
    e = P.descriptor.degree
    J = sign_class(P.attached_class.disc)
    one = wide_rep(principal_class(J.disc), J)

    def wide_order(cls: FormClass) -> int:
        """Order of the class in the ideal class group (wide)."""
        return element_order(
            wide_rep(cls, J), lambda x, y: wide_rep(x * y, J), one, _MAX_CLASS_ORDER
        )

    if wide_order(P.attached_class) != e or wide_order(Q.attached_class) != e:
        raise OrderViolationError("attached classes must have order p^n")
    product = P.attached_class * Q.attached_class
    if wide_order(product) != e:
        raise OrderViolationError("product class does not have order p^n")
    lhs = P.certified_constant * Q.certified_constant
    rhs = W.certified_constant * W.certified_constant
    constant_ok = lhs == rhs
    class_ok = W.attached_class.disc == J.disc and (
        wide_rep(product, J) == wide_rep(W.attached_class, J)
    )
    return CompositionCheck(
        constant_identity=constant_ok,
        class_correspondence=class_ok,
        passed=constant_ok and class_ok,
    )
