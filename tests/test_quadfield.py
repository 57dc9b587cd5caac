import operator
import random
import signal
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnorm import quadfield
from quadnorm.intmath import (
    factorize,
    floor_quadsurd,
    is_squarefree,
    kronecker,
    p_power_order,
    power,
    primes_up_to,
    sqrt_mod_prime,
)
from quadnorm.quadfield import (
    EvenPrimeError,
    FundamentalUnit,
    NonSquarefreeError,
    NotPrimeError,
    OutOfRangeError,
    QuadInteger,
    QuadraticField,
    RamifiedPrimeError,
    ResidueFieldElement,
    SplittingType,
    fundamental_unit,
    make_field,
    reduce_mod_prime,
    split_roots,
    splitting_type,
)
from test_formclass import divisors


def multiplicative_order_dividing(x: ResidueFieldElement, m: int) -> int:
    """Smallest k dividing m with x**k = 1; raises if none divides.  The
    divisor-search oracle for ``intmath.p_power_order``."""
    for k in divisors(m):
        if (x**k).is_one():
            return k
    raise ArithmeticError(f"order does not divide {m}")


class TestMakeField:
    def test_disc_3_mod_4(self):
        assert make_field(79).disc == 316

    def test_disc_1_mod_4(self):
        F = make_field(5)
        assert F.disc == 5 and F.half_basis

    def test_rejects_square_factor(self):
        with pytest.raises(NonSquarefreeError):
            make_field(12)

    def test_rejects_small(self):
        with pytest.raises(OutOfRangeError):
            make_field(1)


class TestSplitting:
    def test_inert(self, field79):
        assert splitting_type(field79, 37) is SplittingType.INERT

    def test_split(self, field79):
        assert splitting_type(field79, 3) is SplittingType.SPLIT

    def test_ramified(self, field79):
        assert splitting_type(field79, 79) is SplittingType.RAMIFIED

    def test_not_prime(self, field79):
        with pytest.raises(NotPrimeError):
            splitting_type(field79, 15)

    @pytest.mark.parametrize("d", [79, 10, 5])
    def test_densities(self, d):
        F = make_field(d)
        counts = {SplittingType.SPLIT: 0, SplittingType.INERT: 0, SplittingType.RAMIFIED: 0}
        primes = primes_up_to(10_000)
        for ell in primes:
            counts[splitting_type(F, ell)] += 1
        total = len(primes)
        assert abs(counts[SplittingType.SPLIT] / total - 0.5) < 0.05
        assert abs(counts[SplittingType.INERT] / total - 0.5) < 0.05
        assert counts[SplittingType.RAMIFIED] == len(
            [p for p in primes if F.disc % p == 0]
        )

    def test_even_prime_is_refused_at_once(self):
        """2 splits in Q(sqrt 17) (17 = 1 mod 8), but the root search is for
        odd primes only: at q = 2 its non-residue search would never stop."""

        def stuck(signum, frame):
            raise TimeoutError("q = 2 was not refused")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(5)
        try:
            assert splitting_type(make_field(17), 2) is SplittingType.SPLIT
            with pytest.raises(ValueError, match="odd prime"):
                split_roots(make_field(17), 2)
            with pytest.raises(ValueError, match="odd prime"):
                sqrt_mod_prime(1, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestQuadInteger:
    def test_half_coordinates_need_matching_parity(self):
        with pytest.raises(ValueError):
            QuadInteger(5, 1, 2, 2)

    def test_half_reduces_to_integral(self):
        assert QuadInteger(5, 2, 4, 2) == QuadInteger(5, 1, 2)

    def test_no_half_for_2_mod_4(self):
        with pytest.raises(ValueError):
            QuadInteger(10, 1, 1, 2)

    def test_product_of_halves(self):
        w = QuadInteger(5, 1, 1, 2)
        assert w * w == QuadInteger(5, 3, 1, 2)  # w^2 = w + 1

    def test_norm_and_trace(self):
        x = QuadInteger(79, 80, 9)
        assert x.norm() == 1 and x.trace() == 160

    def test_sign_refuses_a_rational_sqrt(self):
        # 2 - sqrt(4) and 3 - sqrt(9) are 0; sqrt(d) is irrational only for a
        # non-square d > 1
        for d, a, b in ((4, 2, -1), (9, 3, -1), (1, 1, -1), (0, 1, 1), (-3, 1, 1)):
            x = QuadInteger(d, a, b)
            with pytest.raises(ValueError):
                x.sign()
            with pytest.raises(ValueError):
                x.is_greater_than_one()

    def test_unit_inverse(self):
        u = QuadInteger(10, 3, 1)
        assert u * u.inverse() == QuadInteger(10, 1, 0)
        assert u ** -2 == (u ** 2).inverse()

    def test_conjugate_product_is_norm(self):
        for d, a, b, den in ((79, 80, 9, 1), (5, 1, 1, 2), (10, 3, 1, 1)):
            x = QuadInteger(d, a, b, den)
            assert x * x.conjugate() == QuadInteger(d, x.norm(), 0)

    def test_divide_exact_into_half_coordinates(self):
        # 2 + 2*sqrt(5) = 4 * (1 + sqrt(5))/2
        assert QuadInteger(5, 2, 2).divide_exact(4) == QuadInteger(5, 1, 1, 2)
        assert QuadInteger(13, 6, 2).divide_exact(4) == QuadInteger(13, 3, 1, 2)

    @pytest.mark.parametrize(
        "d,a,b,den,k",
        [(5, 1, 1, 2, 2), (10, 2, 2, 1, 4), (5, 2, 0, 1, 4), (13, 4, 2, 1, 4), (5, 3, 1, 2, 3)],
    )
    def test_divide_exact_rejects(self, d, a, b, den, k):
        with pytest.raises(ArithmeticError):
            QuadInteger(d, a, b, den).divide_exact(k)

    @given(
        d=st.sampled_from([5, 10, 13, 79]),
        a=st.integers(-50, 50),
        b=st.integers(-50, 50),
        half=st.booleans(),
        k=st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_divide_exact_inverts_scale(self, d, a, b, half, k):
        if half and d % 4 == 1 and (a - b) % 2 == 0:
            x = QuadInteger(d, a, b, 2)
        else:
            x = QuadInteger(d, a, b)
        assert x.scale(k).divide_exact(k) == x
        assert x.scale(-k).divide_exact(k) == -x


# The reduced-form QuadInteger that kept (a, b, den) before the pair (u, v)
# of (u + v*sqrt(d))/2 became the stored format: the oracle of the pair
# arithmetic.  The body is the former ``quadfield`` class, renamed.


class TripleQuadInteger:
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
        raise AttributeError("TripleQuadInteger is immutable")

    def _check(self, other: "TripleQuadInteger") -> None:
        if self.d != other.d:
            raise ValueError("mixed radicands")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleQuadInteger):
            return NotImplemented
        return (self.d, self.a, self.b, self.den) == (other.d, other.a, other.b, other.den)

    def __hash__(self) -> int:
        return hash((self.d, self.a, self.b, self.den))

    def __repr__(self) -> str:
        core = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return f"({core})/2" if self.den == 2 else f"({core})"

    def __add__(self, other: "TripleQuadInteger") -> "TripleQuadInteger":
        self._check(other)
        if self.den == other.den:
            return TripleQuadInteger(self.d, self.a + other.a, self.b + other.b, self.den)
        x, y = (self, other) if self.den == 2 else (other, self)
        return TripleQuadInteger(self.d, x.a + 2 * y.a, x.b + 2 * y.b, 2)

    def __sub__(self, other: "TripleQuadInteger") -> "TripleQuadInteger":
        return self + (-other)

    def __neg__(self) -> "TripleQuadInteger":
        return TripleQuadInteger(self.d, -self.a, -self.b, self.den)

    def __mul__(self, other: "TripleQuadInteger") -> "TripleQuadInteger":
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
        return TripleQuadInteger(self.d, a, b, den)

    def scale(self, k: int) -> "TripleQuadInteger":
        return TripleQuadInteger(self.d, k * self.a, k * self.b, self.den)

    def divide_exact(self, k: int) -> "TripleQuadInteger":
        """Exact division by a rational integer; raises if not divisible."""
        # numerators over the common denominator 2, e.g. (2 + 2*sqrt(5)) / 4
        # is (1 + sqrt(5)) / 2
        u, v = (self.a, self.b) if self.den == 2 else (2 * self.a, 2 * self.b)
        if u % k or v % k:
            raise ArithmeticError(f"{self!r} not divisible by {k}")
        u, v = u // k, v // k
        if (u - v) % 2 or (u % 2 and self.d % 4 != 1):
            raise ArithmeticError(f"{self!r} not divisible by {k}")
        return TripleQuadInteger(self.d, u, v, 2)

    def conjugate(self) -> "TripleQuadInteger":
        return TripleQuadInteger(self.d, self.a, -self.b, self.den)

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

    def inverse(self) -> "TripleQuadInteger":
        n = self.norm()
        if abs(n) != 1:
            raise ArithmeticError("only units are invertible in the ring")
        return self.conjugate().scale(n)

    def __pow__(self, k: int) -> "TripleQuadInteger":
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), operator.mul, TripleQuadInteger(self.d, 1, 0))

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
        shifted = TripleQuadInteger(self.d, self.a - self.den, self.b, 1)
        return shifted.sign() > 0


ORACLE_DS = (2, 3, 5, 10, 13, 21, 79, 94)  # both classes of d mod 4
GRID = [
    (d, a, b, den)
    for d in ORACLE_DS
    for a in range(-6, 7)
    for b in range(-6, 7)
    for den in (1, 2)
]


def outcome(f, *args):
    """What a call gives, comparable across the two classes: an element as
    its lowest terms and repr, or the type and message of the exception."""
    try:
        got = f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(got, (QuadInteger, TripleQuadInteger)):
        return got.d, got.a, got.b, got.den, repr(got)
    return got


def valid_pairs(d=None):
    """(pair-format, oracle) for every grid entry the oracle accepts."""
    out = []
    for args in GRID:
        if d is None or args[0] == d:
            try:
                old = TripleQuadInteger(*args)
            except ValueError:
                continue
            out.append((QuadInteger(*args), old))
    return out


class TestPairFormatAgainstTripleOracle:
    def test_constructor_refusals_and_readouts(self):
        refused = 0
        for args in GRID + [(5, 1, 1, 0), (5, 1, 1, 3), (13, 2, 2, -2), (10, 0, 0, 4)]:
            got = outcome(QuadInteger, *args)
            assert got == outcome(TripleQuadInteger, *args), args
            refused += got[0] is ValueError
        assert refused > 100

    def test_stored_pair(self):
        assert QuadInteger.__slots__ == ("d", "u", "v")
        for x, old in valid_pairs():
            assert (x.u, x.v) == (old.a * 2 // old.den, old.b * 2 // old.den)

    def test_equality_and_hash(self):
        pairs = valid_pairs()
        classes: dict = {}
        for x, old in pairs:
            classes.setdefault(old, set()).add(x)
        # equal elements compare equal and hash alike, unequal ones differ
        assert all(len(same) == 1 for same in classes.values())
        assert len({x for x, _ in pairs}) == len(classes)
        rng = random.Random(28)
        for _ in range(3000):
            (x, xo), (y, yo) = rng.choice(pairs), rng.choice(pairs)
            assert (x == y) == (xo == yo)
            if x == y:
                assert hash(x) == hash(y)
        assert QuadInteger(5, 2, 4, 2) == QuadInteger(5, 1, 2) != QuadInteger(13, 1, 2)
        assert QuadInteger(5, 1, 2) != (5, 1, 2, 1)

    @pytest.mark.parametrize("d", ORACLE_DS)
    def test_ring_operations(self, d):
        pairs = valid_pairs(d)
        # the other operand is sometimes from the field before d in the list
        others = pairs + valid_pairs(ORACLE_DS[ORACLE_DS.index(d) - 1])[:20]
        rng = random.Random(d)
        for _ in range(1500):
            (x, xo), (y, yo) = rng.choice(pairs), rng.choice(others)
            for op in ("__add__", "__sub__", "__mul__"):
                assert outcome(getattr(x, op), y) == outcome(getattr(xo, op), yo), (op, xo, yo)
        for x, xo in pairs:
            for op in ("__neg__", "conjugate", "norm", "trace", "inverse",
                       "height", "sign", "is_greater_than_one"):
                assert outcome(getattr(x, op)) == outcome(getattr(xo, op)), (op, xo)
            for k in range(-4, 5):
                assert outcome(x.scale, k) == outcome(xo.scale, k), (xo, k)
                if k:
                    assert outcome(x.divide_exact, k) == outcome(xo.divide_exact, k), (xo, k)
                    y, yo = x.scale(3), xo.scale(3)
                    assert outcome(y.divide_exact, k) == outcome(yo.divide_exact, k), (yo, k)
            for k in (-1, 0, 1, 2, 3):
                assert outcome(x.__pow__, k) == outcome(xo.__pow__, k), (xo, k)

    @pytest.mark.parametrize("d", ORACLE_DS)
    def test_unit_powers(self, d):
        eps = fundamental_unit(make_field(d)).value
        units = [eps, -eps, eps.conjugate(), QuadInteger(d, -1, 0)]
        for x in units:
            xo = TripleQuadInteger(d, x.a, x.b, x.den)
            for k in range(-4, 5):
                assert outcome(x.__pow__, k) == outcome(xo.__pow__, k), (xo, k)
                assert outcome((x**k).inverse) == outcome((xo**k).inverse), (xo, k)
            assert outcome(x.is_greater_than_one) == outcome(xo.is_greater_than_one)
            assert outcome(x.sign) == outcome(xo.sign)


# The Pell brute force, the independent oracle of the continued-fraction
# unit.  The body is the former ``quadfield`` function, unchanged.


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


class TestFundamentalUnit:
    @pytest.mark.parametrize(
        "d,a,b,den,norm",
        [
            (79, 80, 9, 1, 1),
            (10, 3, 1, 1, -1),
            (2, 1, 1, 1, -1),
            (5, 1, 1, 2, -1),
            (13, 3, 1, 2, -1),
            (94, 2143295, 221064, 1, 1),
        ],
    )
    def test_known_units(self, d, a, b, den, norm):
        u = fundamental_unit(make_field(d))
        assert (u.value.a, u.value.b, u.value.den) == (a, b, den)
        assert u.unit_norm == norm

    def test_exact_norm_identity(self):
        for d in range(2, 120):
            try:
                F = make_field(d)
            except NonSquarefreeError:
                continue
            u = fundamental_unit(F)
            assert u.value * u.value.conjugate() == QuadInteger(d, u.unit_norm, 0)
            assert u.value.is_greater_than_one()

    def test_long_period_units_stay_exact(self):
        # periods in the hundreds and coordinates with dozens of digits
        for d in (1621, 1951):
            F = make_field(d)
            u = fundamental_unit(F)
            assert u.value * u.value.conjugate() == QuadInteger(d, u.unit_norm, 0)
            assert u.value.is_greater_than_one()
        assert len(str(fundamental_unit(make_field(1951)).value.a)) > 30

    @pytest.mark.parametrize("d,period,norm", [(13, 1, -1), (79, 4, 1), (94, 16, 1)])
    def test_steps_are_rho_steps(self, monkeypatch, d, period, norm):
        # one _rho call per partial quotient: the walk stops after one
        # period, at the negated start triple when N(eps) = -1
        rho, calls = quadfield._rho, []

        def counted(*args):
            calls.append(args)
            return rho(*args)

        monkeypatch.setattr(quadfield, "_rho", counted)
        assert fundamental_unit(make_field(d)).unit_norm == norm
        assert len(calls) == period

    def test_matches_pell_brute_force_below_500(self):
        cap = 20_000
        for d in range(2, 501):
            try:
                F = make_field(d)
            except NonSquarefreeError:
                continue
            cf = fundamental_unit(F).value
            oracle = brute_force_unit(F, min(abs(cf.b), cap))
            if abs(cf.b) <= cap:
                assert oracle == cf, f"d={d}"
            else:
                # no unit exists below the bound, consistent with the big one
                assert brute_force_unit(F, cap) is None, f"d={d}"


# The unit as computed before the purely periodic expansion, kept as an
# oracle: it starts PQa at (D mod 2 + sqrt(D))/2, which is not reduced,
# detects the period by a repeated state (P, Q), and normalises the quotient
# of two complete quotients among four candidates.


def period_detection_unit(F: QuadraticField) -> FundamentalUnit:
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


class TestPeriodDetectionOracle:
    def test_agrees_below_20000(self):
        for d in range(2, 20_000):
            if is_squarefree(d):
                F = make_field(d)
                assert fundamental_unit(F) == period_detection_unit(F), f"d={d}"

    @pytest.mark.parametrize("d", [100000001, 100000002, 100000010, 999999937, 1000000007])
    def test_agrees_on_large_fields(self, d):
        F = make_field(d)
        assert fundamental_unit(F) == period_detection_unit(F)


# The PQa loop on states (P, Q), the former ``quadfield.fundamental_unit``
# with its body unchanged: the same continued fraction as the rho walk of
# theta's triple, kept as an oracle of it.


def pqa_unit(F: QuadraticField) -> FundamentalUnit:
    """Smallest unit > 1, by the purely periodic PQa expansion.

    With D the field discriminant and P0 the largest integer below sqrt(D)
    of the parity of D, theta = (P0 + sqrt(D))/2 is reduced (theta > 1 and
    -1 < theta' < 0) and Z[theta] is the ring of integers, so units outside
    Z[sqrt(d)] are found.  The expansion of a reduced quadratic irrational
    is purely periodic with every Q positive (Jacobson-Williams, *Solving
    the Pell Equation*, ch. 5), so each partial quotient is
    (P + isqrt(D)) // Q, and the state (P, Q) first returns to (P0, 2)
    after one period of length l.  Then
    eps = A_(l-1) - B_(l-1)*theta' = (2*A_(l-1) - P0*B_(l-1) + B_(l-1)*sqrt(D))/2,
    of norm (-1)^l.
    """
    D = F.disc
    s = isqrt(D)
    P0 = s - (s - D) % 2
    P, Q = P0, 2
    A, A1 = 1, 0  # A_(i-1), A_(i-2)
    B, B1 = 0, 1
    while True:
        a = (P + s) // Q
        A, A1 = a * A + A1, A
        B, B1 = a * B + B1, B
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == 2:
            break
    # the pair of eps, with sqrt(D) = 2*sqrt(d) when D = 4d
    eps = QuadInteger(F.d, 2 * A - P0 * B, B if F.half_basis else 2 * B, 2)
    n = eps.norm()
    if abs(n) != 1:
        raise ArithmeticError(f"PQa produced a non-unit for d={F.d}")
    if not eps.is_greater_than_one():
        raise ArithmeticError(f"unit normalization failed for d={F.d}")
    return FundamentalUnit(value=eps, unit_norm=n)


class TestPQaOracle:
    def test_agrees_below_20000(self):
        for d in range(2, 20_000):
            if is_squarefree(d):
                F = make_field(d)
                assert fundamental_unit(F) == pqa_unit(F), f"d={d}"

    @pytest.mark.parametrize("d", [100000001, 100000002, 100000010, 999999937, 1000000007])
    def test_agrees_on_large_fields(self, d):
        F = make_field(d)
        assert fundamental_unit(F) == pqa_unit(F)


class TestReduceModPrime:
    def test_inert_example(self, field79):
        eps = fundamental_unit(field79).value
        img = reduce_mod_prime(field79, eps, 37)
        assert (img.c0, img.c1, img.dmod) == (6, 9, 5)

    def test_root_refused_at_inert_prime(self, field79):
        # 37 is inert in Q(sqrt(79)): one prime lies above it, and 79 has no
        # square root mod 37 to choose
        assert splitting_type(field79, 37) is SplittingType.INERT
        for root in (5, 0, 36):
            with pytest.raises(ValueError):
                reduce_mod_prime(field79, QuadInteger(79, 3, 1), 37, root)

    def test_identity(self, field79):
        one = QuadInteger(79, 1, 0)
        img = reduce_mod_prime(field79, one, 37)
        assert img.is_one()

    def test_split_example_with_root(self, field79):
        eps = fundamental_unit(field79).value
        img = reduce_mod_prime(field79, eps, 7, 3)
        assert (img.c0, img.c1, img.root) == (2, 0, 3)

    def test_ramified_rejected(self, field79):
        with pytest.raises(RamifiedPrimeError):
            reduce_mod_prime(field79, QuadInteger(79, 1, 0), 79)

    def test_split_roots_refuse_a_ramified_prime_as_the_map_does(self, field79):
        message = r"^79 ramifies \(divides 316\)$"
        with pytest.raises(RamifiedPrimeError, match=message):
            split_roots(field79, 79)
        with pytest.raises(RamifiedPrimeError, match=message):
            reduce_mod_prime(field79, QuadInteger(79, 1, 0), 79)

    def test_even_rejected(self, field79):
        with pytest.raises(EvenPrimeError):
            reduce_mod_prime(field79, QuadInteger(79, 1, 0), 2)

    def test_half_integral_elements_reduce(self):
        F = make_field(5)
        w = QuadInteger(5, 1, 1, 2)
        img = reduce_mod_prime(F, w, 13)
        # (1 + w)/2 with inverse of 2 mod 13 = 7
        assert img.c0 == 7 and img.c1 == 7

    @given(
        a1=st.integers(-50, 50), b1=st.integers(-50, 50),
        a2=st.integers(-50, 50), b2=st.integers(-50, 50),
        qi=st.sampled_from([3, 7, 13, 23, 29, 37, 41]),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiplicative(self, a1, b1, a2, b2, qi):
        F = make_field(79)
        if F.disc % qi == 0:
            return
        x = QuadInteger(79, a1, b1)
        y = QuadInteger(79, a2, b2)
        root = None
        if splitting_type(F, qi) is SplittingType.SPLIT:
            root = split_roots(F, qi)[0]
        lhs = reduce_mod_prime(F, x * y, qi, root)
        rhs = reduce_mod_prime(F, x, qi, root) * reduce_mod_prime(F, y, qi, root)
        assert lhs == rhs

    def test_power_matches_repeated_product(self, field79):
        # __pow__ runs on integer pairs; repeated __mul__ is the oracle
        rng = random.Random(5)
        for q in primes_up_to(199)[1:]:
            if field79.disc % q == 0:
                continue
            inert = splitting_type(field79, q) is SplittingType.INERT
            group_order = q * q - 1 if inert else q - 1
            one = reduce_mod_prime(field79, QuadInteger(79, 1, 0), q)
            for _ in range(2):
                x = QuadInteger(79, rng.randrange(q), rng.randrange(q))
                img = reduce_mod_prime(field79, x, q)
                if img.c0 == img.c1 == 0:
                    continue
                powers = [one, img]
                while not powers[-1].is_one():
                    powers.append(powers[-1] * img)
                order = len(powers) - 1
                assert multiplicative_order_dividing(img, group_order) == order
                for k in [0, 1, order] + [rng.randrange(3 * order) for _ in range(8)]:
                    assert img**k == powers[k % order]


def residue_fields(q: int):
    """F_q (a split residue field, root 1 of d = 1) and F_(q^2) (w^2 = the
    least non-residue mod q), each with its group order."""
    nonresidue = next(a for a in range(2, q) if kronecker(a, q) == -1)
    return (
        (ResidueFieldElement(q, 1, 0, 1, 1), q - 1),
        (ResidueFieldElement(q, 1, 0, nonresidue), q * q - 1),
    )


def generator(one: ResidueFieldElement, m: int) -> ResidueFieldElement:
    """A generator of the cyclic group of order m of the field of ``one``."""
    q = one.q
    for c0 in range(q):
        for c1 in range(q if one.root is None else 1):
            x = ResidueFieldElement(q, c0, c1, one.dmod, one.root)
            if x.c0 or x.c1:
                if all(not (x ** (m // ell)).is_one() for ell in factorize(m)):
                    return x
    raise AssertionError(f"no generator of order {m}")


class TestPPowerOrder:
    @pytest.mark.parametrize("q", primes_up_to(199)[1:])
    def test_matches_divisor_search(self, q):
        # x -> x^(m/p^n) maps the nonzero elements onto the p^n-torsion,
        # the cyclic group of g^(m/p^n); each element of it is checked
        for one, m in residue_fields(q):
            g = generator(one, m)
            for p, v in factorize(m).items():
                for n in range(1, v + 1):
                    h, y = g ** (m // p**n), one
                    for _ in range(p**n):
                        got = p_power_order(y, p, n, lambda x: x**p, one)
                        assert got == multiplicative_order_dividing(y, p**n)
                        y = y * h

    def test_raises_past_p_to_the_n(self):
        # 3 has order 16 mod 17: it takes the four squarings and no fewer
        calls = []

        def square(x):
            calls.append(x)
            return x * x % 17

        assert p_power_order(3, 2, 4, square, 1) == 16 and len(calls) == 4
        for n in range(4):
            with pytest.raises(ArithmeticError, match=f"order does not divide {2**n}$"):
                p_power_order(3, 2, n, square, 1)
        one, m = residue_fields(7)[1]  # F_49, order 48 = 2^4 * 3
        g = generator(one, m)
        with pytest.raises(ArithmeticError, match="order does not divide 16$"):
            p_power_order(g, 2, 4, lambda x: x**2, one)
        with pytest.raises(ArithmeticError, match="order does not divide 16$"):
            multiplicative_order_dividing(g, 16)
