"""Cyclic fields of odd prime-power degree and prime conductor.

The degree-p^n subfield of the q-th cyclotomic field is realized through
its Gaussian periods.  A descriptor keeps O(p^n) state: a residue x mod q
is labelled by its p^n-th power-residue class, the discrete log of
x^((q-1)/p^n) in the subgroup of order p^n.  The period multiplication
table T[i][j][k] = T[0][j-i][k-i] is kept as its row 0 alone: the p^n
cyclotomic rows R[m] = T[0][m], counted by walking the index-p^n subgroup
once per row and stored as their nonzero entries (at most (q-1)/p^n for
m != 0).  ``period_mul`` is the one product over the rows, for integer
vectors here and for the relative arithmetic of ``compose``.  Tables are
built only up to the conductor MAX_TABLE_CONDUCTOR.  The period polynomial
is computed exactly by group-ring arithmetic (power sums of periods are
integers, turned into coefficients by Newton's identities).  On
construction its discriminant, the Hankel determinant det(s_(i+j)) of the
power sums, is verified to be the field discriminant
q^(p^n - 1) times a perfect square, the square of the index of one
period's power basis in the ring of integers; the literal identity
disc = q^(p^n - 1) holds only where that index is 1.  Admissibility
conditions on a compositum with a real quadratic field (class prime inert,
tower, inert conductor) are decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .intmath import (
    bareiss_det,
    exact_div,
    factorize,
    is_prime,
    kronecker,
    newton_charpoly,
    poly_discriminant,
    primes_up_to,
)
from .quadfield import NotPrimeError, QuadraticField, SplittingType, splitting_type


class ConductorInvalidError(ValueError):
    """q is not 1 modulo p^n."""


class WildOrRamifiedConductorError(ValueError):
    """Conductor ramifies in the quadratic field or equals p."""


class ClassPrimeNotSplitError(ValueError):
    """Properness is only defined for class primes split in the field."""


def _primitive_root(q: int) -> int:
    phi = q - 1
    prime_divs = factorize(phi)
    for g in range(2, q):
        if all(pow(g, phi // pd, q) != 1 for pd in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


@lru_cache(maxsize=1024)
def check_conductor(q: int, p: int, n: int) -> int:
    """Return the degree p^n after checking that q is a prime conductor
    for it: q prime, p an odd prime, n >= 1 and q = 1 mod p^n.  A scan
    checks the same few conductors for every field, so passing checks
    are memoised (a failing one raises every time)."""
    if not is_prime(q):
        raise NotPrimeError(f"conductor {q} is not prime")
    if not is_prime(p) or p == 2:
        raise NotPrimeError(f"{p} is not an odd prime")
    if n < 1:
        raise ConductorInvalidError("exponent must be >= 1")
    degree = p**n
    if (q - 1) % degree != 0:
        raise ConductorInvalidError(f"{q} is not 1 mod {degree}")
    return degree


# Largest conductor whose period table is built.  The rows take q - 1
# modular powers; ``ext`` just below it took 4.6 s at degree 3, 4.5 s at
# degree 25 and 6.9 s at degree 49 (2.1 s of it the Hankel discriminant,
# against 6.1 s for the Sylvester determinant) on a 2-core host.
# Descriptors without a table (``cyclic_descriptor``, ``check_conductor``)
# have no ceiling.
MAX_TABLE_CONDUCTOR = 2_000_000


def check_table_conductor(q: int) -> None:
    """Refuse a period table above MAX_TABLE_CONDUCTOR before building it."""
    if q > MAX_TABLE_CONDUCTOR:
        raise ConductorInvalidError(
            f"conductor {q} is above the period-table ceiling {MAX_TABLE_CONDUCTOR}"
        )


class CyclicExtensionDescriptor:
    """Degree p^n cyclic field of prime conductor q (q = 1 mod p^n).

    Labels residues by power-residue class through a p^n-entry discrete-log
    table; the cyclotomic rows and the period polynomial are materialized
    lazily and cached.  ``subgroup`` and the dense ``struct_constants`` are
    lazy too, and nothing here reads them.
    """

    def __init__(self, q: int, p: int, n: int):
        degree = check_conductor(q, p, n)
        self.q = q
        self.p = p
        self.n = n
        self.degree = degree
        self.f = (q - 1) // degree
        self.g = _primitive_root(q)
        # x^f lies in the order-degree subgroup generated by g^f, and its
        # discrete log there is the discrete log of x base g, mod degree
        gf = pow(self.g, self.f, q)
        self._dlog = {pow(gf, k, q): k for k in range(degree)}
        self._subgroup: tuple[int, ...] | None = None
        self._period_poly: tuple[int, ...] | None = None
        self._rows: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._struct: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        self._power_basis_index: int | None = None

    def __repr__(self) -> str:
        return f"CyclicExtensionDescriptor(q={self.q}, p={self.p}, n={self.n})"

    def coset_label(self, x: int) -> int:
        x %= self.q
        if x == 0:
            raise ValueError("0 has no coset label")
        return self._dlog[pow(x, self.f, self.q)]

    def residue_degree(self, ell: int) -> int:
        """Order of ell in (Z/q)^* modulo the period subgroup.

        Returns 0 for the ramified case ell = q; the prime is inert in the
        cyclic field exactly when the result equals the degree.
        """
        if ell % self.q == 0:
            return 0
        k = self.coset_label(ell)
        return self.degree // gcd(k, self.degree)

    @property
    def subgroup(self) -> tuple[int, ...]:
        """The f elements of the index-p^n subgroup of (Z/q)^*, ascending."""
        if self._subgroup is None:
            gd = pow(self.g, self.degree, self.q)
            self._subgroup = tuple(sorted(pow(gd, j, self.q) for j in range(self.f)))
        return self._subgroup

    @property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """R[m] = T[0][m], the coefficients of period_0 * period_m, as the
        nonzero (k, t) pairs; the whole table is T[i][j][k] = R[j-i][k-i],
        indices mod the degree, by the cyclic Galois action."""
        if self._rows is None:
            check_table_conductor(self.q)
            self._rows = self._build_struct()
        return self._rows

    @property
    def struct_constants(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """T[i][j][k]: coefficient of period_k in period_i * period_j,
        expanded from the rows on first use."""
        if self._struct is None:
            e = self.degree
            dense = []
            for row in self.rows:
                r = [0] * e
                for k, t in row:
                    r[k] = t
                dense.append(r)
            self._struct = tuple(
                tuple(
                    tuple(dense[(j - i) % e][(k - i) % e] for k in range(e))
                    for j in range(e)
                )
                for i in range(e)
            )
        return self._struct

    def period_images(self, z: int, modulus: int) -> tuple[int, ...]:
        """P[m] = sum over h in H of z^(g^m h) mod ``modulus``: the periods
        under zeta -> z, for z of order q modulo ``modulus``."""
        q, e = self.q, self.degree
        zpow = [1] * q
        for k in range(1, q):
            zpow[k] = zpow[k - 1] * z % modulus
        images = [0] * e
        x = 1
        for k in range(q - 1):  # x = g^k has label k mod e
            images[k % e] += zpow[x]
            x = x * self.g % q
        return tuple(c % modulus for c in images)

    def _build_struct(self):
        # Substituting h2 = h1 * h in period_0 * period_m, the sum over
        # h1, h2 in H of zeta^(h1 + g^m h2), gives the cyclotomic-number
        # identity period_0 * period_m = sum over h in H of
        # period_label(1 + g^m h).  The one h with 1 + g^m h = 0 contributes
        # f * 1 = -f * (sum of periods).  H = <g^e> is walked, not stored.
        q, e, f, g = self.q, self.degree, self.f, self.g
        dlog = self._dlog
        ge = pow(g, e, q)
        rows = []
        gm = 1
        for _ in range(e):  # row m: period_0 * period_m
            cnt = [0] * e
            zero_hits = 0
            x = gm  # runs over g^m * H
            for _ in range(f):
                y = x + 1
                if y == q:
                    zero_hits += 1
                else:
                    cnt[dlog[pow(y, f, q)]] += 1
                x = x * ge % q
            shift = f * zero_hits
            rows.append(tuple((k, c - shift) for k, c in enumerate(cnt) if c != shift))
            gm = gm * g % q
        return tuple(rows)

    @property
    def period_poly(self) -> tuple[int, ...]:
        """Monic integer minimal polynomial of the periods, ascending
        coefficients.

        Construction is verified through the discriminant: it must equal
        q^(degree-1) times a perfect square, the square of the index of the
        power basis of one period inside the full ring of integers.  That
        index (available as ``power_basis_index``) is 1 whenever the periods
        have length two and at the showcase conductors 7, 13 and 37, but not
        in general, even for cubics: at q = 31 it is 2, because 2 is a cube
        mod 31 and so splits into three primes of degree one, which no
        power basis can separate modulo 2.
        """
        if self._period_poly is None:
            self._period_poly = self._build_period_poly()
        return self._period_poly

    @property
    def power_basis_index(self) -> int:
        self.period_poly
        assert self._power_basis_index is not None
        return self._power_basis_index

    def _build_period_poly(self) -> tuple[int, ...]:
        e = self.degree
        rows = self.rows
        # power sums of the periods: s_k = trace(period_0^k) = -sum(coords),
        # on pair vectors with v = 0 (so u is twice the integer coordinate)
        eta = [(2, 0)] + [(0, 0)] * (e - 1)
        vec = eta
        psums = []
        for k in range(e):
            if k:
                vec = period_mul(vec, eta, rows, 0)
            psums.append(-sum(u for u, _ in vec) // 2)
        coeffs = newton_charpoly(psums, exact_div) + [1]
        # s_0 = e, and s_k = -sum over i < e of a_i s_(k-e+i) for k > e, as
        # every root satisfies the monic polynomial; the discriminant is the
        # Hankel determinant det(s_(i+j)) = det(V)^2 of the Vandermonde V
        s = [e] + psums
        for k in range(e + 1, 2 * e - 1):
            s.append(-sum(a * s[k - e + i] for i, a in enumerate(coeffs[:e])))
        disc = bareiss_det([s[i : i + e] for i in range(e)])
        field_disc = self.q ** (e - 1)
        ratio, rem = divmod(disc, field_disc)
        root = isqrt(ratio) if rem == 0 and ratio > 0 else 0
        if rem or root * root != ratio:
            raise ArithmeticError(
                f"period polynomial discriminant {disc} is not {self.q}^{e - 1}"
                " times a perfect square"
            )
        self._power_basis_index = root
        return tuple(coeffs)


def period_mul(x, y, rows, d: int) -> list[tuple[int, int]]:
    """Product of two vectors on the period basis over the ring of integers
    of Q(sqrt(d)), through the cyclotomic rows R = ``rows`` of the table.

    A coordinate is an integer pair (u, v) standing for (u + v*sqrt(d))/2,
    so an integer vector c is the pair vector (2c, 0) and any d will do.
    period_i * period_j is sum over (k, t) in R[j - i] of t * period_(k+i);
    the negative index j - i reads R cyclically, and k + i < 2e is folded
    mod e once at the end.  Raises ArithmeticError when a coordinate of the
    product is not integral.
    """
    e = len(x)
    acc_u = [0] * (2 * e)
    acc_v = [0] * (2 * e)
    ys = [(j, yu, yv) for j, (yu, yv) in enumerate(y) if yu or yv]
    for i, (xu, xv) in enumerate(x):
        if not (xu or xv):
            continue
        xvd = xv * d
        for j, yu, yv in ys:
            # (xu + xv*r)(yu + yv*r) with r = sqrt(d), over the denominator 4
            pu = xu * yu + xvd * yv
            pv = xu * yv + xv * yu
            for k, t in rows[j - i]:
                acc_u[k + i] += t * pu
                acc_v[k + i] += t * pv
    out = []
    for k in range(e):
        u = acc_u[k] + acc_u[k + e]
        v = acc_v[k] + acc_v[k + e]
        if u & 1 or v & 1:
            raise ArithmeticError("non-integral product coordinate")
        out.append((u >> 1, v >> 1))
    return out


def period_polynomial(q: int, p: int, n: int) -> CyclicExtensionDescriptor:
    """Descriptor with the period polynomial materialized and verified;
    raises ConductorInvalidError above MAX_TABLE_CONDUCTOR."""
    check_conductor(q, p, n)
    check_table_conductor(q)
    desc = CyclicExtensionDescriptor(q, p, n)
    desc.period_poly  # force construction and the discriminant check
    return desc


def cyclic_descriptor(q: int, p: int, n: int) -> CyclicExtensionDescriptor:
    """Cheap descriptor (O(p^n) state); the polynomial stays lazy."""
    return CyclicExtensionDescriptor(q, p, n)


@dataclass(frozen=True)
class TowerCertificate:
    exists: bool
    k: int | None
    witness: str


def tower_certificate(q: int, p: int, n: int) -> TowerCertificate:
    """Does a cyclic overfield with matching relative degree exist inside
    the same cyclotomic field?  Yes exactly when p^(2n) divides q - 1."""
    need = p ** (2 * n)
    if (q - 1) % need == 0:
        return TowerCertificate(
            exists=True,
            k=2 * n,
            witness=f"degree-{need} subfield of the {q}-th cyclotomic field",
        )
    return TowerCertificate(exists=False, k=None, witness="")


@dataclass(frozen=True)
class RelativeDiscriminant:
    conductor: int
    exponent: int
    primes: tuple[tuple[str, int], ...]  # (label, residue degree over Q)
    norm: int


def relative_discriminant(
    desc: CyclicExtensionDescriptor, F: QuadraticField
) -> RelativeDiscriminant:
    """Relative discriminant of the compositum over the quadratic field:
    (q)^(degree - 1) as a formal prime-power list, with its absolute norm."""
    q = desc.q
    if q == desc.p or F.disc % q == 0:
        raise WildOrRamifiedConductorError(
            f"conductor {q} is wild or ramified for disc {F.disc}"
        )
    expo = desc.degree - 1
    if splitting_type(F, q) is SplittingType.INERT:
        primes = ((f"({q})", 2),)
    else:
        primes = ((f"({q})+", 1), (f"({q})-", 1))
    norm = q ** (2 * expo)
    return RelativeDiscriminant(conductor=q, exponent=expo, primes=primes, norm=norm)


@dataclass(frozen=True)
class PropernessReport:
    galois_over_Q: bool
    inert_class_prime: bool
    tower: TowerCertificate
    disc_primes_inert_in_N: bool
    overall: bool


def properness_report(
    F: QuadraticField, desc: CyclicExtensionDescriptor, ell: int
) -> PropernessReport:
    """The three admissibility conditions for the compositum and a class
    prime ell (ell must split in the quadratic field)."""
    if splitting_type(F, ell) is not SplittingType.SPLIT:
        raise ClassPrimeNotSplitError(f"class prime {ell} does not split")
    galois = True  # compositum of abelian fields is abelian over Q
    inert_class_prime = desc.residue_degree(ell) == desc.degree
    tower = tower_certificate(desc.q, desc.p, desc.n)
    disc_inert = kronecker(F.disc, desc.q) == -1
    overall = galois and inert_class_prime and tower.exists and disc_inert
    return PropernessReport(
        galois_over_Q=galois,
        inert_class_prime=inert_class_prime,
        tower=tower,
        disc_primes_inert_in_N=disc_inert,
        overall=overall,
    )


def count_roots_mod(coeffs: list[int], ell: int) -> int:
    """Number of roots of the integer polynomial modulo a prime ell."""
    return sum(
        1
        for x in range(ell)
        if _eval_mod(coeffs, x, ell) == 0
    )


def _eval_mod(coeffs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def same_field_by_split_patterns(
    desc: CyclicExtensionDescriptor, coeffs: list[int], bound: int
) -> bool:
    """Do the descriptor field and the field of the given degree-p^n
    polynomial show identical split/inert behaviour at primes < bound?

    For a cyclic field, a prime is split exactly when the polynomial has a
    full set of roots and inert when it has none; primes dividing the
    polynomial discriminant or the conductor are skipped.
    """
    pd = abs(poly_discriminant(coeffs))
    e = desc.degree
    for ell in primes_up_to(bound - 1):
        if pd % ell == 0 or ell == desc.q:
            continue
        nroots = count_roots_mod(coeffs, ell)
        fdeg = desc.residue_degree(ell)
        if nroots == e and fdeg != 1:
            return False
        if nroots == 0 and fdeg == 1:
            return False
        if 0 < nroots < e:
            return False  # not even Galois-consistent
    return True
