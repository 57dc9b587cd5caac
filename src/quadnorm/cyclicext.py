"""Cyclic fields of odd prime-power degree and prime conductor.

The degree-p^n subfield of the q-th cyclotomic field is realized through
its Gaussian periods.  A descriptor holds its conductor and degree; the
residue degree of a prime ell is the order of ell^((q-1)/p^n), at most
n + 1 modular powers, and the rest is computed on first read and cached:
the primitive root g and the period tables.  These start from a label
table of q bytes, labels[g^i] = i mod p^n from one walk of the powers of
g.  The period multiplication table T[i][j][k] = T[0][j-i][k-i] is kept
as its row 0 alone: the p^n cyclotomic rows R[m] = T[0][m], whose
entries are the cyclotomic numbers (m, k), counted as the consecutive
labels (label(x), label(x + 1)) in one pass, and stored as their
nonzero entries (at most (q-1)/p^n for m != 0).
``period_mul`` is the one product over the rows, for the relative
arithmetic of ``compose``.  Tables are built only up to the conductor
MAX_TABLE_CONDUCTOR and the degree MAX_TABLE_DEGREE, and no descriptor is
made above the conductor MAX_CONDUCTOR.  ``period_images`` gives the
periods' images in Z/M under a ring map zeta -> z with Phi_q(z) = 0
(mod M), from one blocked pass over the label table.  ``ring_image`` takes
them for the relative norms and charpolys of ``compose``: M = Phi_q(2^w)
and z = 2^w up to KRONECKER_MAX_CONDUCTOR, and above it M = ell^k for the
least prime ell = 1 (mod 2q), sized by the bound and not by q.  The period
polynomial is read off the same images modulo ell^k > 2 (2f)^e, every
period being at most f in absolute value: its coefficients from the
product of the linear factors x - P[m], and the index I of one period's
power basis in the ring of integers from the norms of the period
differences, whose product squared is the discriminant q^(p^n - 1) I^2.
Each value is lifted symmetrically and checked against its bound, and
q^((p^n - 1)/2) must divide the norms' product; the literal identity
disc = q^(p^n - 1) holds only where I is 1.  Admissibility
conditions on a compositum with a real quadratic field (class prime
inert, tower, inert conductor) are decided here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import comb, isqrt

from .intmath import (
    factorize,
    is_prime,
    kronecker,
    p_power_order,
    poly_discriminant,
    primes_up_to,
)
from .quadfield import (
    NotPrimeError,
    QuadraticField,
    RamifiedPrimeError,
    SplittingType,
    splitting_type,
)


class ConductorInvalidError(ValueError):
    """n < 1, q is not 1 modulo p^n, or a period table of conductor q and
    degree p^n is above its ceiling."""


class ClassPrimeNotSplitError(ValueError):
    """Properness is only defined for class primes split in the field."""


def _primitive_root(q: int) -> int:
    phi = q - 1
    prime_divs = factorize(phi)
    for g in range(2, q):
        if all(pow(g, phi // pd, q) != 1 for pd in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


# Largest conductor of any descriptor.  Only a descriptor with a period
# table seeks a primitive root (``_primitive_root`` factors q - 1 by trial
# division), and it stops at MAX_TABLE_CONDUCTOR.  Without a table every
# step is a few modular powers (local orders by ``intmath.p_power_order``),
# none growing as sqrt(p): ``normindex`` at q = 99999998000003,
# p = 49999999000001 (q = 2p + 1) took 0.19 s on a 2-core host, interpreter
# start included.
MAX_CONDUCTOR = 10**14


def check_degree(p: int, n: int) -> None:
    """Refuse a degree p^n unless p is an odd prime and n >= 1."""
    if not is_prime(p) or p == 2:
        raise NotPrimeError(f"{p} is not an odd prime")
    if n < 1:
        raise ConductorInvalidError("exponent must be >= 1")


@lru_cache(maxsize=1024)
def check_conductor(q: int, p: int, n: int) -> int:
    """Return the degree p^n after checking that q is a prime conductor
    for it: q prime up to MAX_CONDUCTOR, p an odd prime, n >= 1 and
    q = 1 mod p^n.  A scan checks the same few conductors for every field,
    so passing checks are memoised (a failing one raises every time)."""
    if q > MAX_CONDUCTOR:
        raise ConductorInvalidError(
            f"conductor {q} is above the conductor ceiling {MAX_CONDUCTOR}"
        )
    if not is_prime(q):
        raise NotPrimeError(f"conductor {q} is not prime")
    check_degree(p, n)
    # n >= the bit length of the odd q gives p^n > 2^n >= q: refused unpowered
    if n >= q.bit_length() or (q - 1) % (degree := p**n):
        raise ConductorInvalidError(f"{q} is not 1 mod {p}^{n}")
    return degree


# Largest conductor whose period table is built.  The label table takes a
# byte and a modular product per residue, and the period polynomial one
# blocked walk of it; ``ext`` just below it took 0.6-1.0 s at each of the
# degrees 3, 25, 49 and 61 on a 2-core host (medians of three; the host's
# speed moves by up to 40%), about half of it the label table.
# Descriptors without a table (``cyclic_descriptor``, ``check_conductor``)
# stop at MAX_CONDUCTOR.
MAX_TABLE_CONDUCTOR = 2_000_000

# Largest degree whose period table is built; labels fit in a byte.  The
# period polynomial takes one walk of the label table modulo ell^k, of
# about e log2(2f) bits, and O(e^2) products modulo it; at the largest
# admissible conductor below MAX_TABLE_CONDUCTOR the label table and the
# polynomial took 0.7-0.9 s at degrees 49 and 61, and 0.6 s at 67 and 71
# with this ceiling lifted, on a 2-core host, 0.25-0.55 s of it the label
# table.
MAX_TABLE_DEGREE = 61

# Largest conductor whose ring images (``ring_image``) are taken modulo
# Phi_q(2^w); above it they are taken modulo ell^k.  The three norms of a
# sparse alpha, beta and alpha*beta on a descriptor with fresh images took,
# in ms, Phi_q(2^w) / ell^k on a 2-core host (medians of three runs of nine):
#   degree 3:  0.22/0.31 at q = 997, 0.42/0.55 at 1297, 0.35/0.51 at 1531,
#     0.59/0.64 at 1801, 0.45/0.52 at 1999, 0.86/0.88 at 2503, 0.77/0.61 at
#     3001 and 1.12/0.75 at 4003;
#   degree 25: 1.40/1.82 at q = 1051, 1.84/2.32 at 1301, 2.46/2.44 at 1601,
#     2.99/2.90 at 1801, 4.14/2.66 at 2251, 5.10/2.93 at 2551, 6.47/3.37 at
#     3001 and 10.82/3.72 at 4001.
# The crossover lies near q = 1600 at degree 25 and near 2500 at degree 3.
KRONECKER_MAX_CONDUCTOR = 2000


def check_table(q: int, degree: int) -> None:
    """Refuse a period table above MAX_TABLE_CONDUCTOR or MAX_TABLE_DEGREE
    before building it."""
    if q > MAX_TABLE_CONDUCTOR:
        raise ConductorInvalidError(
            f"conductor {q} is above the period-table ceiling {MAX_TABLE_CONDUCTOR}"
        )
    if degree > MAX_TABLE_DEGREE:
        raise ConductorInvalidError(
            f"degree {degree} is above the period-table ceiling {MAX_TABLE_DEGREE}"
        )


def image_block(q: int, degree: int) -> int:
    """Residues per block of ``period_images``: isqrt(q * degree), and at
    least 8 * degree.  A walk makes q additions, about q * degree / B
    modular products and B stored powers, fewest near B = sqrt(q * degree);
    the floor keeps the e block sums and products few against the B
    additions when q is small."""
    return max(8 * degree, isqrt(q * degree))


class CyclicExtensionDescriptor:
    """Degree p^n cyclic field of prime conductor q (q = 1 mod p^n).

    Holds the checked conductor and degree; ``residue_degree`` needs no
    more.  The primitive root ``g``, the q-byte label table of the rows and
    period images, the rows, the dense ``struct_constants`` and the period
    polynomial are cached properties, computed on first read.
    """

    def __init__(self, q: int, p: int, n: int):
        self.degree = check_conductor(q, p, n)
        self.q = q
        self.p = p
        self.n = n
        self.f = (q - 1) // self.degree
        self._ring_image: tuple[int, tuple[int, ...]] | None = None

    def __repr__(self) -> str:
        return f"CyclicExtensionDescriptor(q={self.q}, p={self.p}, n={self.n})"

    @cached_property
    def g(self) -> int:
        return _primitive_root(self.q)

    @cached_property
    def labels(self) -> bytearray:
        """labels[x] for 0 < x < q is the discrete log of x^f base g^f,
        which names the coset of x modulo the period subgroup; one byte per
        residue (the degree is at most MAX_TABLE_DEGREE), from one walk of
        the powers of g: labels[g^i] = i mod e, as (g^i)^f = (g^f)^i.
        Built on first use, by the rows or the period images."""
        q, e = self.q, self.degree
        check_table(q, e)
        g = self.g  # a local: the cached property is slow to read in a loop
        labels = bytearray(q)
        x = 1
        for i in range(q - 1):
            labels[x] = i % e
            x = x * g % q
        return labels

    def residue_degree(self, ell: int) -> int:
        """Order of ell in (Z/q)^* modulo the period subgroup H.

        x -> x^f maps (Z/q)^* onto the subgroup of order p^n with kernel H,
        so this is the order of ell^f: the least p^k with ell^(f p^k) = 1,
        at most n + 1 modular powers.  Returns 0 for the ramified case
        ell = q; the prime is inert in the cyclic field exactly when the
        result equals the degree.
        """
        if ell % self.q == 0:
            return 0
        q, p = self.q, self.p
        return p_power_order(pow(ell, self.f, q), p, self.n, lambda x: pow(x, p, q), 1)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """R[m] = T[0][m], the coefficients of period_0 * period_m, as the
        nonzero (k, t) pairs; the whole table is T[i][j][k] = R[j-i][k-i],
        indices mod the degree, by the cyclic Galois action."""
        return self._build_struct()

    @cached_property
    def struct_constants(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """T[i][j][k]: coefficient of period_k in period_i * period_j,
        expanded from the rows."""
        e = self.degree
        dense = []
        for row in self.rows:
            r = [0] * e
            for k, t in row:
                r[k] = t
            dense.append(r)
        return tuple(
            tuple(
                tuple(dense[(j - i) % e][(k - i) % e] for k in range(e))
                for j in range(e)
            )
            for i in range(e)
        )

    def period_images(self, z: int, modulus: int) -> tuple[int, ...]:
        """P[m] = sum of z^x over the x with label m, mod ``modulus``: the
        periods under zeta -> z, for a z with Phi_q(z) = 0 modulo
        ``modulus``, in one pass over the label table.

        The pass runs in blocks of B = ``image_block(q, degree)`` residues:
        for x = s + j in the block from s, z^x = z^s * z^j, so each residue
        adds the stored power z^j to its label's block sum, and each block
        costs one modular product per period, by z^s, and one to step z^s
        to z^(s + B).
        """
        e, labels = self.degree, self.labels
        block = image_block(self.q, e)
        zpow = [1] * block  # z^j for j < block
        for j in range(1, block):
            zpow[j] = zpow[j - 1] * z % modulus
        step = zpow[-1] * z % modulus  # z^block
        sums = [0] * e
        zs = z  # z^s for the block from x = s, first s = 1
        for start in range(1, len(labels), block):
            acc = [0] * e
            for label, zj in zip(labels[start : start + block], zpow):
                acc[label] += zj
            for m, a in enumerate(acc):
                if a:
                    sums[m] += a * zs % modulus
            zs = zs * step % modulus
        return tuple(s % modulus for s in sums)

    def ring_image(self, bound: int) -> tuple[int, tuple[int, ...]]:
        """An odd modulus M > ``bound`` and the period images P modulo M
        under a ring map zeta -> z, Phi_q(z) = 0 (mod M): M = Phi_q(2^w)
        up to the conductor KRONECKER_MAX_CONDUCTOR, else M = ell^k.  A
        one-slot cache keeps the widest M built so far."""
        if self._ring_image is None or self._ring_image[0] <= bound:
            if self.q <= KRONECKER_MAX_CONDUCTOR:
                M, z = kronecker_modulus(self.q, bound)
            else:
                M, z = prime_power_modulus(self.q, bound)
            self._ring_image = (M, self.period_images(z, M))
        return self._ring_image

    def _build_struct(self):
        # period_0 * period_m = sum over h in H of period_label(1 + g^m h),
        # so R[m][k] is the cyclotomic number (m, k): the count of x with
        # label(x) = m and label(x + 1) = k.  The one x = -1, whose x + 1
        # is 0, adds f * 1 = -f * (sum of periods); -1 = (g^e)^(f/2) lies
        # in H (f is even), so that correction is -f on row 0.
        e, labels = self.degree, self.labels
        counts = Counter(zip(islice(labels, 1, None), islice(labels, 2, None)))
        counts.subtract({(0, k): self.f for k in range(e)})
        return tuple(
            tuple((k, counts[m, k]) for k in range(e) if counts[m, k]) for m in range(e)
        )

    @property
    def period_poly(self) -> tuple[int, ...]:
        """Monic integer minimal polynomial of the periods, ascending
        coefficients.

        Read off the periods' images modulo ell^k (``_period_poly``), and
        verified there: every coefficient and every norm of a period
        difference must lie within its proven bound, and the norms' product
        must be q^((degree-1)/2) times a nonzero integer, the index of the
        power basis of one period inside the full ring of integers, so that
        the discriminant is q^(degree-1) times that index squared.  The
        index (available as ``power_basis_index``) is 1 whenever the periods
        have length two and at the showcase conductors 7, 13 and 37, but not
        in general, even for cubics: at q = 31 it is 2, because 2 is a cube
        mod 31 and so splits into three primes of degree one, which no
        power basis can separate modulo 2.
        """
        return self._period_poly[0]

    @property
    def power_basis_index(self) -> int:
        return self._period_poly[1]

    @cached_property
    def _period_poly(self) -> tuple[tuple[int, ...], int]:
        """(coefficients, power basis index) of the period polynomial.

        Every |eta_m| <= f, so the coefficient of x^k is at most
        C(e, k) f^(e-k) and each N(eta_0 - eta_k) = prod over j of
        (eta_j - eta_(j+k)) at most (2f)^e.  Both are taken from the
        images P of the periods modulo M = ell^k > 2 (2f)^e and lifted
        symmetrically: the coefficients from the e linear factors x - P[m],
        the norms from the differences of P.  For odd e the discriminant is
        the square of prod over k <= (e-1)/2 of N(eta_0 - eta_k) (Cohen,
        GTM 138), so that product over q^((e-1)/2) is the index.  Raises
        ArithmeticError when a lifted value exceeds its bound or the
        product is not a nonzero multiple of q^((e-1)/2).
        """
        q, e, f = self.q, self.degree, self.f
        M, z = prime_power_modulus(q, 2 * (2 * f) ** e)
        P = self.period_images(z, M)

        def lift(x: int, bound: int, what: str) -> int:
            x = x - M if 2 * x > M else x
            if abs(x) > bound:
                raise ArithmeticError(f"period polynomial {what} {x} exceeds its bound {bound}")
            return x

        coeffs = [1]
        for r in P:  # times x - r
            coeffs = [(a - r * b) % M for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs = [lift(c, comb(e, k) * f ** (e - k), f"coefficient of x^{k}")
                  for k, c in enumerate(coeffs)]
        norms = 1
        for k in range(1, (e + 1) // 2):
            norm = 1
            for j in range(e):
                norm = norm * (P[j] - P[(j + k) % e]) % M
            norms *= abs(lift(norm, (2 * f) ** e, f"norm N(eta_0 - eta_{k})"))
        index, rem = divmod(norms, q ** ((e - 1) // 2))
        if rem or not index:
            raise ArithmeticError(
                f"period difference norms {norms} are not a nonzero multiple"
                f" of {q}^{(e - 1) // 2}"
            )
        return tuple(coeffs), index


def primes_one_mod_2q(q: int) -> Iterator[int]:
    """The primes ell = 1 + 2kq, k = 1, 2, ..., ascending: the odd primes
    with an element of order q modulo ell."""
    ell = 1
    while True:
        ell += 2 * q
        if is_prime(ell):
            yield ell


def kronecker_modulus(q: int, bound: int) -> tuple[int, int]:
    """(M, z) = (Phi_q(2^w), 2^w) for the least w >= 1 with M > ``bound``.

    M is odd and Phi_q(z) = M = 0 (mod M).  The powers z^k, k < q, are
    below M, so every period image is a bit mask: the sum of f distinct
    powers of 2^w.  Phi_q(2^w) has w(q - 1) + 1 bits, so the first w
    tried is too small by at most one step.
    """
    w = max(1, -(-(bound.bit_length() - 1) // (q - 1)))
    while (M := ((1 << w * q) - 1) // ((1 << w) - 1)) <= bound:
        w += 1
    return M, 1 << w


def prime_power_modulus(q: int, bound: int) -> tuple[int, int]:
    """(M, z) = (ell^k, ``order_q_root(q, ell, M)``) for the least prime
    ell = 1 (mod 2q) and the least k with M > ``bound``.

    z^q = 1 and z - 1 is a unit modulo M, so Phi_q(z) = (z^q - 1)/(z - 1)
    is 0 modulo M.  M grows with the bound, not with q.
    """
    ell = next(primes_one_mod_2q(q))
    M = ell
    while M <= bound:
        M *= ell
    return M, order_q_root(q, ell, M)


def order_q_root(q: int, ell: int, M: int) -> int:
    """z = a^(phi(M)/q) mod M for the least a >= 2 with z != 1 (mod ell),
    where M is a power of the prime ell = 1 (mod q): z has order q modulo M.
    """
    power = M // ell * (ell - 1) // q
    a = 2
    while (z := pow(a, power, M)) % ell == 1:
        a += 1
    return z


def period_mul(x, y, rows, d: int) -> list[tuple[int, int]]:
    """Product of two vectors on the period basis over the ring of integers
    of Q(sqrt(d)), through the cyclotomic rows R = ``rows`` of the table.

    A coordinate is an integer pair (u, v) standing for (u + v*sqrt(d))/2,
    the pair that ``quadfield.QuadInteger`` stores, so an integer vector c
    is the pair vector (2c, 0) and any d will do.
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
    raises ConductorInvalidError above MAX_TABLE_CONDUCTOR or
    MAX_TABLE_DEGREE."""
    check_table(q, check_conductor(q, p, n))
    desc = CyclicExtensionDescriptor(q, p, n)
    desc.period_poly  # force construction and its bound and norm checks
    return desc


def cyclic_descriptor(q: int, p: int, n: int) -> CyclicExtensionDescriptor:
    """Cheap descriptor: the checked conductor and degree, no table until
    one is read."""
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
    if F.disc % q == 0:
        raise RamifiedPrimeError(f"conductor {q} ramifies in disc {F.disc}")
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
