"""Cyclic fields of odd prime-power degree and prime conductor.

The degree-p^n subfield of the q-th cyclotomic field is realized through
its Gaussian periods.  The period polynomial is computed exactly by
group-ring arithmetic (power sums of periods are integers, turned into
coefficients by Newton's identities).  On construction its discriminant
is verified to be the field discriminant q^(p^n - 1) times a perfect
square, the square of the index of one period's power basis in the ring of
integers; the literal identity disc = q^(p^n - 1) holds only where that
index is 1.  Admissibility conditions on a
compositum with a real quadratic field (class prime inert, tower, inert
conductor) are decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .intmath import factorize, is_prime, kronecker, poly_discriminant
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


class CyclicExtensionDescriptor:
    """Degree p^n cyclic field of prime conductor q (q = 1 mod p^n).

    Stores the index-p^n subgroup of (Z/q)^* via discrete-log labels; the
    period polynomial and the period multiplication table are materialized
    lazily and cached.
    """

    def __init__(self, q: int, p: int, n: int):
        if not is_prime(q):
            raise NotPrimeError(f"conductor {q} is not prime")
        if not is_prime(p) or p == 2:
            raise NotPrimeError(f"{p} is not an odd prime")
        if n < 1:
            raise ConductorInvalidError("exponent must be >= 1")
        degree = p**n
        if (q - 1) % degree != 0:
            raise ConductorInvalidError(f"{q} is not 1 mod {degree}")
        self.q = q
        self.p = p
        self.n = n
        self.degree = degree
        self.f = (q - 1) // degree
        self.g = _primitive_root(q)
        # labels[x] = discrete log of x base g, reduced mod degree
        labels = [0] * q
        acc = 1
        for k in range(q - 1):
            labels[acc] = k % degree
            acc = acc * self.g % q
        self._labels = labels
        self.subgroup = tuple(sorted(pow(self.g, degree * j, q) for j in range(self.f)))
        self._period_poly: tuple[int, ...] | None = None
        self._struct: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        self._power_basis_index: int | None = None

    def __repr__(self) -> str:
        return f"CyclicExtensionDescriptor(q={self.q}, p={self.p}, n={self.n})"

    def coset_label(self, x: int) -> int:
        x %= self.q
        if x == 0:
            raise ValueError("0 has no coset label")
        return self._labels[x]

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
    def struct_constants(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """T[i][j][k]: coefficient of period_k in period_i * period_j."""
        if self._struct is None:
            self._struct = self._build_struct()
        return self._struct

    def _build_struct(self):
        q, e, f, g = self.q, self.degree, self.f, self.g
        H = self.subgroup
        labels = self._labels
        rows = []
        gm = 1
        for _ in range(e):  # row m: period_0 * period_m
            cnt = [0] * e
            zero_hits = 0
            for h1 in H:
                base = h1
                for h2 in H:
                    sidx = (base + gm * h2) % q
                    if sidx == 0:
                        zero_hits += 1
                    else:
                        cnt[labels[sidx]] += 1
            n0 = zero_hits  # each zero-sum pair contributes the constant 1
            row = []
            for k in range(e):
                val, rem = divmod(cnt[k], f)
                if rem:
                    raise ArithmeticError("period product is not an integer combination")
                row.append(val - n0)  # 1 = -(sum of periods)
            rows.append(tuple(row))
            gm = gm * g % q
        # T[i][j][k] = rows[j - i][k - i] by the cyclic Galois action
        full = []
        for i in range(e):
            fi = []
            for j in range(e):
                base = rows[(j - i) % e]
                fi.append(tuple(base[(k - i) % e] for k in range(e)))
            full.append(tuple(fi))
        return tuple(full)

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
        T = self.struct_constants
        # power sums of the periods: s_k = trace(period_0^k) = -sum(coords)
        vec = [0] * e
        vec[0] = 1
        psums = []
        for _ in range(e):
            psums.append(-sum(vec))
            vec = _struct_mul_int(vec, [1 if i == 0 else 0 for i in range(e)], T)
        # Newton's identities: k*e_k = sum_{i<=k} (-1)^(i-1) * e_{k-i} * s_i
        esym = [1]
        for k in range(1, e + 1):
            acc = 0
            sign = 1
            for i in range(1, k + 1):
                acc += sign * esym[k - i] * psums[i - 1]
                sign = -sign
            val, rem = divmod(acc, k)
            if rem:
                raise ArithmeticError("Newton identity division failed")
            esym.append(val)
        coeffs = [0] * (e + 1)
        for k in range(e + 1):
            coeffs[e - k] = (-1) ** k * esym[k]
        disc = poly_discriminant(coeffs)
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


def _struct_mul_int(u: list[int], v: list[int], T) -> list[int]:
    e = len(u)
    out = [0] * e
    for i in range(e):
        ui = u[i]
        if not ui:
            continue
        Ti = T[i]
        for j in range(e):
            vj = v[j]
            if not vj:
                continue
            w = ui * vj
            row = Ti[j]
            for k in range(e):
                if row[k]:
                    out[k] += w * row[k]
    return out


def period_polynomial(q: int, p: int, n: int) -> CyclicExtensionDescriptor:
    """Descriptor with the period polynomial materialized and verified."""
    desc = CyclicExtensionDescriptor(q, p, n)
    desc.period_poly  # force construction and the discriminant check
    return desc


def cyclic_descriptor(q: int, p: int, n: int) -> CyclicExtensionDescriptor:
    """Cheap descriptor (labels only); the polynomial stays lazy."""
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
    from .intmath import poly_discriminant, primes_up_to

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
