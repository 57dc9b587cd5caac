import dataclasses
import functools
import hashlib
import itertools
import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnorm import cyclicext
from quadnorm.compose import (
    NOT_FOUND,
    CompositionCheck,
    OrderViolationError,
    RelativeExtension,
    WrongNormError,
    composition_check,
)
from quadnorm.cyclicext import (
    KRONECKER_MAX_CONDUCTOR,
    RingImage,
    cyclic_descriptor,
    kronecker_modulus,
    period_mul,
    period_polynomial,
    prime_power_modulus,
    primes_one_mod_2q,
)
from quadnorm.intmath import cycle, is_prime, is_squarefree, kronecker, primes_up_to
from quadnorm.formclass import (
    DiscriminantMismatchError,
    FormClass,
    class_group,
    prime_form,
)
from quadnorm.quadfield import QuadInteger, RamifiedPrimeError, fundamental_unit, make_field

from test_cyclicext import subgroup
from test_formclass import principal_class, sign_class, wide_rep
from test_intmath import newton_charpoly


@pytest.fixture(scope="module")
def ext7_79(field79, desc7):
    return RelativeExtension(desc7, field79)


@pytest.fixture(scope="module")
def ext37_79(field79, desc37):
    return RelativeExtension(desc37, field79)


@pytest.fixture(scope="module")
def ext7_10(field10, desc7):
    return RelativeExtension(desc7, field10)


def _coords(ext, rng, h=3):
    d = ext.field.d
    return ext.element(
        [QuadInteger(d, rng.randint(-h, h), rng.randint(-h, h)) for _ in range(ext.degree)]
    )


class TestGaloisAction:
    def test_shifts_periods(self, ext7_79):
        assert ext7_79.galois_apply(1, ext7_79.period(0)) == ext7_79.period(1)

    def test_full_cycle_is_identity(self, ext7_79):
        a = ext7_79.period(0) + ext7_79.scalar(QuadInteger(79, 2, 1))
        assert ext7_79.galois_apply(3, a) == ext7_79.galois_apply(0, a)

    def test_fixes_scalars(self, ext7_79):
        c = QuadInteger(79, 5, -2)
        scaled = ext7_79._mul(ext7_79.scalar(c), ext7_79.period(0))
        assert ext7_79.galois_apply(1, scaled) == ext7_79._mul(
            ext7_79.scalar(c), ext7_79.period(1)
        )


class TestRelativeNorm:
    def test_norm_of_one(self, ext7_79):
        assert ext7_79.relative_norm(ext7_79.scalar(QuadInteger(79, 1, 0))) == QuadInteger(79, 1, 0)

    def test_norm_of_period_conductor_7(self, ext7_79):
        assert ext7_79.relative_norm(ext7_79.period(0)) == QuadInteger(79, 1, 0)

    def test_scalar_norm_is_cube(self, ext7_79):
        u = QuadInteger(79, 80, 9)
        assert ext7_79.relative_norm(ext7_79.scalar(u)) == u**3

    def test_multiplicative(self, ext7_79):
        rng = random.Random(7)
        for _ in range(300):
            a, b = _coords(ext7_79, rng), _coords(ext7_79, rng)
            assert ext7_79.relative_norm(a * b) == ext7_79.relative_norm(
                a
            ) * ext7_79.relative_norm(b)

    def test_galois_invariant(self, ext37_79):
        rng = random.Random(11)
        for _ in range(50):
            a = _coords(ext37_79, rng)
            assert ext37_79.relative_norm(ext37_79.galois_apply(1, a)) == (
                ext37_79.relative_norm(a)
            )

    @given(coeffs=st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_norm_against_charpoly_constant(self, coeffs):
        F = make_field(10)
        desc = period_polynomial(7, 3, 1)
        ext = RelativeExtension(desc, F)
        a = ext.element(
            [QuadInteger(10, coeffs[2 * i], coeffs[2 * i + 1]) for i in range(3)]
        )
        cp = ext.charpoly(a)
        assert cp.constant == -ext.relative_norm(a)

    def test_norms_and_charpolys_build_no_rows(self):
        # they run on the period images alone; the first product reads the rows
        ext = RelativeExtension(period_polynomial(101, 5, 2), make_field(13))
        alpha = ext.period(0) + ext.period(7)
        ext.relative_norm(alpha)
        ext.charpoly(alpha)
        assert "rows" not in vars(ext.desc)
        alpha * alpha
        assert "rows" in vars(ext.desc)


class TestStructConstants:
    @pytest.mark.parametrize(
        "q,p,n",
        [(7, 3, 1), (13, 3, 1), (11, 5, 1), (19, 3, 2), (101, 5, 2), (997, 3, 1)],
    )
    def test_match_brute_cyclotomic(self, q, p, n):
        desc = period_polynomial(q, p, n)
        e = desc.degree
        H = subgroup(desc)
        g = desc.g
        cosets = [[pow(g, j, q) * h % q for h in H] for j in range(e)]
        for i in range(e):
            for j in range(e):
                vec = [0] * q
                for a1 in cosets[i]:
                    for a2 in cosets[j]:
                        vec[(a1 + a2) % q] += 1
                n0 = vec[0]
                for k in range(e):
                    vals = {vec[a] for a in cosets[k]}
                    assert len(vals) == 1  # constant on each coset
                    assert desc.struct_constants[i][j][k] == vals.pop() - n0


class TestCharpoly:
    def test_period_charpoly_is_period_polynomial(self, ext7_79, desc7):
        cp = ext7_79.charpoly(ext7_79.period(0))
        got = [c for c in cp.coeffs]
        assert all(c.b == 0 and c.den == 1 for c in got)
        assert tuple(c.a for c in got) == desc7.period_poly

    def test_scalar_charpoly(self, ext7_79):
        u = QuadInteger(79, 3, 1)
        cp = ext7_79.charpoly(ext7_79.scalar(u))
        # (x - u)^3 = x^3 - 3u x^2 + 3u^2 x - u^3
        assert cp.coeffs == (-(u**3), (u * u).scale(3), u.scale(-3), QuadInteger(79, 1, 0))


def _rand_quad(rng, d, h=3):
    """A random element of height <= h, with denominator 2 half the time
    when d = 1 (mod 4)."""
    a, b = rng.randint(-h, h), rng.randint(-h, h)
    if d % 4 == 1 and (a - b) % 2 == 0 and rng.random() < 0.5:
        return QuadInteger(d, a, b, 2)
    return QuadInteger(d, a, b)


def _faddeev_leverrier(ext, alpha):
    """Charpoly of the multiplication matrix of alpha, ascending, by
    Faddeev-LeVerrier over QuadInteger entries (the test oracle)."""
    e, d = ext.degree, ext.field.d
    zero, one = QuadInteger(d, 0, 0), QuadInteger(d, 1, 0)
    cols = [(alpha * ext.period(j)).coords for j in range(e)]
    M = [[cols[j][i] for j in range(e)] for i in range(e)]

    def mat_mul(A, B):
        out = []
        for i in range(e):
            row = []
            for j in range(e):
                acc = zero
                for k in range(e):
                    if not (A[i][k] == zero or B[k][j] == zero):
                        acc = acc + A[i][k] * B[k][j]
                row.append(acc)
            out.append(row)
        return out

    def trace(A):
        acc = zero
        for i in range(e):
            acc = acc + A[i][i]
        return acc

    cs = [one]
    Mk = M
    c = -trace(Mk)
    cs.append(c)
    for k in range(2, e + 1):
        shifted = [[Mk[i][j] + (c if i == j else zero) for j in range(e)] for i in range(e)]
        Mk = mat_mul(M, shifted)
        c = (-trace(Mk)).divide_exact(k)
        cs.append(c)
    return tuple(reversed(cs))


class TestCharpolyOracle:
    """Newton charpolys against Faddeev-LeVerrier on the multiplication
    matrix, dense at degrees 3, 5 and 9 and sparse at degree 25."""

    @pytest.mark.parametrize("q,p,n", [(7, 3, 1), (11, 5, 1), (19, 3, 2)])
    @pytest.mark.parametrize("d", [10, 13, 79])
    def test_dense(self, q, p, n, d):
        ext = RelativeExtension(period_polynomial(q, p, n), make_field(d))
        rng = random.Random(q * 1000 + d)
        for _ in range(4):
            alpha = ext.element([_rand_quad(rng, d) for _ in range(ext.degree)])
            cp = ext.charpoly(alpha)
            assert cp.coeffs == _faddeev_leverrier(ext, alpha)
            assert cp.degree() == ext.degree

    def test_sparse_degree_25(self):
        ext = RelativeExtension(period_polynomial(101, 5, 2), make_field(13))
        rng = random.Random(25)
        coords = [QuadInteger(13, 0, 0)] * 25
        for i in rng.sample(range(25), 4):
            coords[i] = _rand_quad(rng, 13)
        alpha = ext.element(coords)
        assert ext.charpoly(alpha).coeffs == _faddeev_leverrier(ext, alpha)

    def test_period_charpoly_at_every_conductor(self):
        F = make_field(2)  # disc 8 is prime to every odd conductor
        for p, n in ((3, 1), (5, 1), (3, 2)):
            e = p**n
            for q in primes_up_to(999):
                if q % e != 1:
                    continue
                desc = period_polynomial(q, p, n)
                ext = RelativeExtension(desc, F)
                coeffs = ext.charpoly(ext.period(0)).coeffs
                assert all(c.b == 0 and c.den == 1 for c in coeffs), q
                assert tuple(c.a for c in coeffs) == desc.period_poly, q


def _as_pairs(coords):
    """(u, v) with c = (u + v*sqrt(d))/2 for each coordinate c."""
    return [(2 * c.a, 2 * c.b) if c.den == 1 else (c.a, c.b) for c in coords]


def newton_route_charpoly(ext, alpha):
    """Charpoly by Newton's identities on the relative traces of alpha,
    alpha^2, ..., alpha^e, where Tr(sum c_j period_j) = -sum c_j and the
    powers are ``period_mul`` products: the route that the conjugate images
    replaced, kept as the oracle of ``charpoly``."""
    rows, d = ext.desc.rows, ext.field.d
    x = _as_pairs(alpha.coords)
    traces, power = [], x
    for k in range(ext.degree):
        if k:
            power = period_mul(power, x, rows, d)
        traces.append(QuadInteger(d, -sum(u for u, _ in power), -sum(v for _, v in power), 2))
    return tuple(newton_charpoly(traces, QuadInteger.divide_exact)) + (QuadInteger(d, 1, 0),)


def test_charpoly_matches_newton_route_below_1000():
    """charpoly against the Newton route at each of the 154 conductors
    q < 1000 of degree 3, 5, 9 and 25, on a seeded sparse element with three
    nonzero unit coordinates (the benchmark's shape), and on one dense
    element of degree 25, whose charpoly the benchmark never takes."""
    rng = random.Random(20261020)
    units = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    count = 0
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        e = p**n
        for q in primes_up_to(999):
            if q % e != 1:
                continue
            d = rng.choice([d for d in (10, 13, 79) if d % q])
            ext = RelativeExtension(cyclic_descriptor(q, p, n), make_field(d))
            coords = [QuadInteger(d, 0, 0)] * e
            for i in rng.sample(range(e), 3):
                coords[i] = QuadInteger(d, *rng.choice(units))
            alpha = ext.element(coords)
            assert ext.charpoly(alpha).coeffs == newton_route_charpoly(ext, alpha), (q, d)
            count += 1
    assert count == 154
    ext = RelativeExtension(cyclic_descriptor(101, 5, 2), make_field(13))
    alpha = ext.element([_rand_quad(rng, 13) for _ in range(25)])
    assert ext.charpoly(alpha).coeffs == newton_route_charpoly(ext, alpha)


class TestCharpolyChecks:
    """Crafted period images in the descriptor's ring-image slot, under an
    odd modulus above every bound, give charpoly(period(0)) at q = 31,
    e = 3 (f = 10, so h = 20) wrong linear factors, which its checks must
    refuse."""

    @staticmethod
    def _crafted(images):
        ext = RelativeExtension(cyclic_descriptor(31, 3, 1), make_field(10))
        M = 10**9 + 7
        ext.desc._ring_image = RingImage(M, images, M.__rmod__)
        return ext

    def test_trace_check(self):
        # x(x - 1)(x - 9) = x^3 - 10x^2 + 9x: every coefficient is within
        # its bound, but the coefficient of x^2 is -10, not -Tr(period(0)) = 1
        ext = self._crafted((0, 1, 9))
        with pytest.raises(ArithmeticError, match="Tr"):
            ext.charpoly(ext.period(0))

    def test_coefficient_bounds(self):
        # (x + 1)(x - K)(x + K) = x^3 + x^2 - K^2 x - K^2 with K = 100: the
        # trace holds, but the coefficients of 1 and x are far above their
        # bounds 20^3 and 3 * 20^2
        K = 100
        ext = self._crafted((-1, K, -K))
        with pytest.raises(ArithmeticError, match="exceeds its bound"):
            ext.charpoly(ext.period(0))

    def test_relative_norm_bound(self):
        # the images of test_coefficient_bounds give N(period(0)) = (-1) *
        # K * (-K) = 10^4, above its bound h^3 = 8000; the period
        # polynomial x^3 + x^2 - 10x - 8 gives the true norm 8
        ext = RelativeExtension(cyclic_descriptor(31, 3, 1), make_field(10))
        assert ext.relative_norm(ext.period(0)) == QuadInteger(10, 8, 0)
        ext = self._crafted((-1, 100, -100))
        with pytest.raises(ArithmeticError, match="relative norm pair .* exceeds its bound 8000"):
            ext.relative_norm(ext.period(0))


class TestSearchChecks:
    def test_hit_is_reverified_by_the_conjugate_product(self, ext7_10, monkeypatch):
        # a sieve that passes everything and an exact norm that always
        # agrees: the first candidate is a false hit, which the
        # conjugate product must refuse
        target = QuadInteger(10, 7, 2)
        (want,) = _as_pairs([target])
        monkeypatch.setattr(
            ext7_10, "_sieve_survivors", lambda pairs, _: itertools.product(pairs, repeat=3)
        )
        monkeypatch.setattr(ext7_10, "_pair_norm", lambda x: want)
        with pytest.raises(ArithmeticError, match="re-verification"):
            ext7_10.search_norm_element(target, 1)

    def test_sieve_leaves_few_exact_norms(self, desc7, monkeypatch):
        # 13^3 = 2197 candidates at d = 13, bound 1, none of them a hit
        ext = RelativeExtension(desc7, make_field(13))
        exact = []
        pair_norm = RelativeExtension._pair_norm

        def counted(self, x):
            exact.append(x)
            return pair_norm(self, x)

        monkeypatch.setattr(RelativeExtension, "_pair_norm", counted)
        assert len(ext.default_height_candidates(1)) == 13
        assert ext.search_norm_element(QuadInteger(13, 10**15, 3), 1) == NOT_FOUND
        assert len(exact) <= 5


class TestForeignRadicands:
    """Coordinates and targets built in another quadratic field are refused
    where they enter: the coordinates (1 + sqrt(5), 0, 2) of Q(sqrt 5) must
    not get a relative norm over Q(sqrt 10)."""

    @pytest.mark.parametrize("den", [1, 2])
    def test_element_scalar_and_target(self, ext7_10, den):
        c = QuadInteger(5, 1, 1, den)
        for refused in (
            lambda: ext7_10.element([c, QuadInteger(5, 0, 0), QuadInteger(5, 2, 0)]),
            lambda: ext7_10.element([QuadInteger(10, 1, 0), QuadInteger(10, 0, 0), c]),
            lambda: ext7_10.scalar(c),
            lambda: ext7_10.search_norm_element(c, 1),
        ):
            with pytest.raises(ValueError, match="^mixed radicands$"):
                refused()


class TestPeriodProduct:
    """The pair-vector kernel against the QuadInteger schoolbook sum
    sum_ij x_i * y_j * T[i][j]."""

    @pytest.mark.parametrize(
        "q,p,n,d", [(7, 3, 1, 13), (11, 5, 1, 79), (19, 3, 2, 5), (101, 5, 2, 13)]
    )
    def test_against_schoolbook(self, q, p, n, d):
        desc = period_polynomial(q, p, n)
        e, T = desc.degree, desc.struct_constants
        rng = random.Random(q)
        for _ in range(3):
            x = [_rand_quad(rng, d) for _ in range(e)]
            y = [_rand_quad(rng, d) for _ in range(e)]
            want = [QuadInteger(d, 0, 0)] * e
            for i in range(e):
                for j in range(e):
                    xy = x[i] * y[j]
                    for k in range(e):
                        want[k] = want[k] + xy.scale(T[i][j][k])
            got = period_mul(_as_pairs(x), _as_pairs(y), desc.rows, d)
            assert [QuadInteger(d, u, v, 2) for u, v in got] == want


def conjugate_product_norm(ext, alpha):
    """Relative norm as alpha times its e - 1 Galois conjugates, one period
    product each (the oracle of the addition chain)."""
    rows, d = ext.desc.rows, ext.field.d
    x = _as_pairs(alpha.coords)
    acc = x
    for i in range(1, ext.degree):
        acc = period_mul(acc, x[-i:] + x[:-i], rows, d)
    assert acc.count(acc[0]) == len(acc)
    u, v = acc[0]
    return QuadInteger(d, -u, -v, 2)  # a scalar c is -c * (sum of periods)


def itoh_tsujii_norm(ext, x) -> tuple[int, int]:
    """Relative norm of a pair vector, as a pair, along an addition
    chain in the Galois group (Itoh-Tsujii): with beta_k the product of
    x, sigma(x), ..., sigma^(k-1)(x), the bits of e from the top give
    beta_2k = beta_k * sigma^k(beta_k) and beta_(k+1) = beta_k * sigma^k(x),
    floor(log2 e) + popcount(e) - 1 products in all (the oracle of the
    ring-image norm)."""
    rows, d = ext._rows, ext.field.d
    acc, k = x, 1
    for bit in bin(ext.degree)[3:]:
        # sigma^k moves a vector k places
        acc = period_mul(acc, acc[-k:] + acc[:-k], rows, d)
        k *= 2
        if bit == "1":
            acc = period_mul(acc, x[-k:] + x[:-k], rows, d)
            k += 1
    if acc.count(acc[0]) != len(acc):
        raise ArithmeticError("norm did not come out scalar")
    u, v = acc[0]
    return (-u, -v)  # a scalar c is -c * (sum of periods)


class TestAdditionChain:
    """The addition-chain norm against the conjugate product at degrees
    3, 5, 7, 9, 11, 13, 25, 27 and 49 (binary 11, 101, 111, 1001, 1011,
    1101, 11001, 11011 and 110001), dense up to 27 and sparse at 49."""

    @pytest.mark.parametrize(
        "q,p,n",
        [
            (7, 3, 1), (11, 5, 1), (29, 7, 1), (19, 3, 2), (23, 11, 1),
            (53, 13, 1), (101, 5, 2), (109, 3, 3), (197, 7, 2),
        ],
    )
    @pytest.mark.parametrize("d", [10, 13, 79])
    def test_against_conjugate_product(self, q, p, n, d):
        ext = RelativeExtension(cyclic_descriptor(q, p, n), make_field(d))
        e = ext.degree
        rng = random.Random(q * 1000 + d)

        def element():
            if e <= 27:
                return ext.element([_rand_quad(rng, d, 2) for _ in range(e)])
            coords = [QuadInteger(d, 0, 0)] * e
            for i in rng.sample(range(e), 4):
                coords[i] = _rand_quad(rng, d)
            return ext.element(coords)

        alpha, beta = element(), element()
        na = ext.relative_norm(alpha)
        assert na == conjugate_product_norm(ext, alpha)
        assert ext.relative_norm(beta) == conjugate_product_norm(ext, beta)
        for i in (1, rng.randrange(2, e)):
            assert ext.relative_norm(alpha.galois(i)) == na
        assert ext.relative_norm(alpha * beta) == na * ext.relative_norm(beta)


def test_relative_norms_pinned_below_1000():
    """relative_norm of two seeded sparse elements (three nonzero unit
    coordinates) at each of the 154 conductors q < 1000 of degree 3, 5, 9
    and 25, pinned by the SHA-256 of their repr; the hash was computed with
    the conjugate-product norm."""
    rng = random.Random(20261018)
    units = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    norms = []
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        e = p**n
        for q in primes_up_to(999):
            if q % e != 1:
                continue
            d = rng.choice([d for d in (10, 13, 79) if d % q])
            ext = RelativeExtension(cyclic_descriptor(q, p, n), make_field(d))
            for _ in range(2):
                coords = [QuadInteger(d, 0, 0)] * e
                for i in rng.sample(range(e), 3):
                    coords[i] = QuadInteger(d, *rng.choice(units))
                norms.append((q, d, ext.relative_norm(ext.element(coords))))
    assert len(norms) == 2 * 154
    digest = hashlib.sha256(repr(norms).encode()).hexdigest()
    assert digest == "c3ce58261377f8b321103e615c1a2a66479e165f0eee6247172d1620a4dda7b5"


def ring_image_of(x, P, M):
    """(a, b) with a + b*t the image of the pair vector x in
    (Z/M)[t]/(t^2 - d): coordinate (u + v*sqrt(d))/2 goes to (u + v*t)/2 and
    period m to P[m]."""
    half = (M + 1) // 2
    a = sum(u * p for (u, _), p in zip(x, P))
    b = sum(v * p for (_, v), p in zip(x, P))
    return a * half % M, b * half % M


def ring_product(x, y, d, M):
    (a, b), (c, e) = x, y
    return (a * c + d * b * e) % M, (a * e + b * c) % M


# conductors below and above KRONECKER_MAX_CONDUCTOR at degrees 3, 5 and 9
BOUND_CONDUCTORS = [
    (7, 3, 1), (31, 3, 1), (4003, 3, 1), (11, 5, 1), (4001, 5, 1), (19, 3, 2), (4051, 3, 2)
]


@functools.lru_cache(maxsize=None)
def _bound_ext(q, p, n, d):
    return RelativeExtension(cyclic_descriptor(q, p, n), make_field(d))


class TestRingImage:
    """The ring map behind ``_pair_norm``: zeta -> z with Phi_q(z) = 0
    (mod M) and sqrt(d) -> t is a ring homomorphism onto (Z/M)[t]/(t^2 - d)
    under both moduli, and the lift is exact because the chain's exact
    norm coordinates never exceed (f * L)^e."""

    @pytest.mark.parametrize(
        "q,p,n",
        [(7, 3, 1), (11, 5, 1), (19, 3, 2), (31, 3, 1), (101, 5, 2), (109, 3, 3), (197, 7, 2)],
    )
    @pytest.mark.parametrize("d", [10, 13, 79])
    @pytest.mark.parametrize("modulus", [kronecker_modulus, prime_power_modulus])
    def test_period_product_maps_to_product_of_images(self, q, p, n, d, modulus):
        desc = cyclic_descriptor(q, p, n)
        e = desc.degree
        rng = random.Random(q * 1000 + d)
        for bound in (0, 2**300):
            M, z = modulus(q, bound)
            assert M % 2 == 1 and M > bound
            P = desc.period_images(z, M)
            for _ in range(3):  # dense, with half-integers when d = 13
                x = _as_pairs([_rand_quad(rng, d) for _ in range(e)])
                y = _as_pairs([_rand_quad(rng, d) for _ in range(e)])
                got = ring_image_of(period_mul(x, y, desc.rows, d), P, M)
                want = ring_product(ring_image_of(x, P, M), ring_image_of(y, P, M), d, M)
                assert got == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        q=st.sampled_from([7, 11, 19, 31, 4001, 4003, 4051]),
        bound=st.one_of(st.integers(0, 2**40), st.integers(0, 2**2000)),
    )
    def test_moduli_are_the_least_above_the_bound(self, q, bound):
        M, z = kronecker_modulus(q, bound)
        w = z.bit_length() - 1
        assert z == 1 << w and M == ((1 << w * q) - 1) // (z - 1) and M > bound
        assert w == 1 or ((1 << (w - 1) * q) - 1) // ((1 << w - 1) - 1) <= bound
        M, z = prime_power_modulus(q, bound)
        ell = next(primes_one_mod_2q(q))
        assert is_prime(ell) and ell % (2 * q) == 1
        assert all(not is_prime(c) for c in range(2 * q + 1, ell, 2 * q))
        assert M > bound and (M == ell or M // ell <= bound)
        # z^q = 1 with z - 1 a unit: Phi_q(z) = (z^q - 1)/(z - 1) = 0 (mod M)
        assert pow(z, q, M) == 1 and (z - 1) % ell != 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        conductor=st.sampled_from(BOUND_CONDUCTORS),
        d=st.sampled_from([10, 13, 79]),
        h=st.sampled_from([1, 3, 40, 10**5]),
        half=st.booleans(),
        data=st.data(),
    )
    def test_norm_coordinates_within_height_bound(self, conductor, d, h, half, data):
        ext = _bound_ext(*conductor, d)
        e, f = ext.degree, ext.desc.f
        odd = 1 if d % 4 == 1 and half else 0  # half-integer coordinates
        coords = data.draw(st.lists(st.integers(-h, h), min_size=2 * e, max_size=2 * e))
        x = [(2 * a + odd, 2 * b + odd) for a, b in zip(coords[::2], coords[1::2])]
        height = sum(abs(u) + abs(v) * (isqrt(d) + 1) for u, v in x)
        bound = (f * height) ** e
        u, v = itoh_tsujii_norm(ext, x)
        assert abs(u) <= bound and abs(v) <= bound
        # a fresh cache holds the least modulus above twice the bound
        ext.desc._ring_image = None
        assert ext._pair_norm(x) == (u, v)
        q = conductor[0]
        modulus = kronecker_modulus if q <= KRONECKER_MAX_CONDUCTOR else prime_power_modulus
        assert ext.desc._ring_image[0] == modulus(q, 2 * bound)[0]

    @pytest.mark.parametrize(
        "q,p,n", [(7, 3, 1), (31, 3, 1), (19, 3, 2), (101, 5, 2), (751, 5, 2), (1999, 3, 1)]
    )
    def test_kronecker_image_agrees_with_the_prime_power_route(self, q, p, n, monkeypatch):
        # the Kronecker images are carried modulo 2^(wq) - 1 and reduced by
        # folding; the ell^k images are carried and reduced modulo M
        rng = random.Random(q)
        kron = RelativeExtension(cyclic_descriptor(q, p, n), make_field(13))
        elements = []
        for height in (1, 1000, 10**12):
            coords = [QuadInteger(13, 0, 0)] * kron.degree
            for i in rng.sample(range(kron.degree), min(kron.degree, 4)):
                a, b = rng.choice([(1, 1), (-1, 1), (2, 0), (0, -2)])
                coords[i] = QuadInteger(13, a * height, b * height, 2)
            elements.append(kron.element(coords))
        got = [(kron.relative_norm(a), kron.charpoly(a)) for a in elements]
        monkeypatch.setattr(cyclicext, "KRONECKER_MAX_CONDUCTOR", 0)
        ell = RelativeExtension(cyclic_descriptor(q, p, n), make_field(13))
        elements = [ell.element(a.coords) for a in elements]
        assert [(ell.relative_norm(a), ell.charpoly(a)) for a in elements] == got
        assert ell.desc._ring_image.modulus != kron.desc._ring_image.modulus

    @pytest.mark.parametrize("q", [7, 4003])
    def test_norm_after_the_cache_grows_and_is_reused(self, q):
        assert (q <= KRONECKER_MAX_CONDUCTOR) == (q == 7)
        ext = RelativeExtension(cyclic_descriptor(q, 3, 1), make_field(13))
        small = ext.element([QuadInteger(13, 1, 1, 2), QuadInteger(13, -1, 0), QuadInteger(13, 0, 0)])
        large = ext.element([QuadInteger(13, 10**30, -7), QuadInteger(13, 3, 10**20), small.coords[0]])
        moduli = []
        for alpha in (small, large, small, large * small):
            want = QuadInteger(13, *itoh_tsujii_norm(ext, _as_pairs(alpha.coords)), 2)
            assert ext.relative_norm(alpha) == want
            moduli.append(ext.desc._ring_image[0])
        assert moduli[0] < moduli[1] == moduli[2] < moduli[3]


def _brute_search(ext, target, bound):
    """First candidate, in the search's order, whose exact relative norm is
    the target."""
    scalars = ext.default_height_candidates(bound)
    for combo in itertools.product(scalars, repeat=ext.degree):
        cand = ext.element(combo)
        if ext.relative_norm(cand) == target:
            return cand
    return NOT_FOUND


class TestSearchAgainstBrute:
    @pytest.mark.parametrize("d", [10, 13, 79])
    def test_first_hit(self, desc7, d):
        ext = RelativeExtension(desc7, make_field(d))
        scalars = ext.default_height_candidates(1)
        assert any(c.den == 2 for c in scalars) == (d % 4 == 1)
        rng = random.Random(d)
        targets = [QuadInteger(d, 1, 0), QuadInteger(d, -1, 0)]
        for _ in range(4):
            targets.append(ext.relative_norm(ext.element(rng.choices(scalars, k=3))))
        for target in targets:
            hit = ext.search_norm_element(target, 1)
            assert hit != NOT_FOUND
            assert hit == _brute_search(ext, target, 1)

    def test_not_found(self, desc7):
        ext = RelativeExtension(desc7, make_field(10))
        target = QuadInteger(10, 7, 2)
        assert _brute_search(ext, target, 1) == NOT_FOUND
        assert ext.search_norm_element(target, 1) == NOT_FOUND

    @pytest.mark.parametrize("bound", [0, 1])
    def test_cubic_conductors(self, bound):
        """Every degree-3 conductor q < 1000 at bound 0, and a seeded half of
        them at bound 1, where the oracle walks all 9^3 or 13^3 candidates
        for each NOT_FOUND target.  Each conductor gets a field with
        d = 1 mod 4, whose candidates include half-integers, and one with
        d != 1 mod 4, each with a reachable target and a target of no
        element of the height."""
        conductors = [q for q in primes_up_to(999) if q % 3 == 1]
        assert len(conductors) == 80
        rng = random.Random(20261018 + bound)
        if bound:
            conductors = sorted(rng.sample(conductors, 40))
        halves = [d for d in primes_up_to(200) if d % 4 == 1]
        wholes = [d for d in range(2, 200) if d % 4 != 1 and is_squarefree(d)]
        found = 0
        for q in conductors:
            desc = cyclic_descriptor(q, 3, 1)
            for pool in (halves, wholes):
                d = rng.choice([d for d in pool if d % q])
                ext = RelativeExtension(desc, make_field(d))
                scalars = ext.default_height_candidates(bound)
                reachable = ext.relative_norm(ext.element(rng.choices(scalars, k=3)))
                # a height-1 norm has |rational part| below
                # (3 * (1 + sqrt(d)) * f)^3 < 4 * 10^12, as |periods| <= f
                missing = QuadInteger(d, rng.randrange(10**15, 10**16), rng.randrange(100))
                for target in (reachable, missing):
                    hit = ext.search_norm_element(target, bound)
                    assert hit == _brute_search(ext, target, bound), (q, d, target)
                    found += hit != NOT_FOUND
        assert found == 2 * len(conductors)

    def test_degree_5_early_hit(self):
        """Degree 5 at bound 1 (9^5 candidates), on a target whose first hit
        lies among the first 9^2 candidates."""
        ext = RelativeExtension(cyclic_descriptor(11, 5, 1), make_field(10))
        scalars = ext.default_height_candidates(1)
        rng = random.Random(5)
        target = ext.relative_norm(ext.element(scalars[:1] * 3 + rng.choices(scalars, k=2)))
        hit = ext.search_norm_element(target, 1)
        assert hit != NOT_FOUND and hit.coords[:3] == (scalars[0],) * 3
        assert hit == _brute_search(ext, target, 1)


class TestResidueSieve:
    """The lemma behind the search's sieve: modulo each sieve prime the
    exact relative norm equals the product of the e linear forms, so no
    true hit is filtered out."""

    @pytest.mark.parametrize("q,p,n", [(7, 3, 1), (11, 5, 1), (19, 3, 2), (101, 5, 2)])
    @pytest.mark.parametrize("d", [10, 13, 79])
    def test_norm_residue_is_product_of_linear_forms(self, q, p, n, d):
        ext = RelativeExtension(cyclic_descriptor(q, p, n), make_field(d))
        sieve, e = ext._sieve, ext.degree
        assert len(sieve.primes) == 2 and sieve.modulus == sieve.primes[0] * sieve.primes[1]
        for ell in sieve.primes:
            assert is_prime(ell) and ell % q == 1 and kronecker(d, ell) == 1
        rng = random.Random(q * 100 + d)
        units = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]

        def coordinate(h):
            if d % 4 == 1 and rng.random() < 0.5:  # a half-integer
                return QuadInteger(d, 2 * rng.randint(-h, h) + 1, 2 * rng.randint(-h, h) + 1, 2)
            return QuadInteger(d, rng.randint(-h, h), rng.randint(-h, h))

        elements = []
        for _ in range(3):
            elements.append([coordinate(3) for _ in range(e)])  # dense
            sparse = [QuadInteger(d, 0, 0)] * e
            for i in rng.sample(range(e), 3):
                sparse[i] = QuadInteger(d, *rng.choice(units))
            elements.append(sparse)
        for coords in elements:
            norm = ext.relative_norm(ext.element(coords))
            xs = [sieve.image(c) for c in _as_pairs(coords)]
            forms = [sum(x * sieve.periods[(m + j) % e] for m, x in enumerate(xs)) for j in range(e)]
            (norm_pair,) = _as_pairs([norm])
            for ell in sieve.primes:
                assert sieve.image(norm_pair) % ell == prod(forms) % ell, (coords, ell)


class TestSearch:
    def test_finds_one_at_bound_1(self, ext7_10):
        hit = ext7_10.search_norm_element(QuadInteger(10, 1, 0), 1)
        assert hit != NOT_FOUND
        assert hit.coords == (QuadInteger(10, -1, 0),) * 3

    def test_finds_scalar_unit_at_its_height(self, ext7_10, field10):
        eps = fundamental_unit(field10).value
        hit = ext7_10.search_norm_element(eps**3, eps.height())
        assert hit != NOT_FOUND
        assert ext7_10.relative_norm(hit) == eps**3

    def test_not_found_is_reported(self, ext7_10):
        assert ext7_10.search_norm_element(QuadInteger(10, 7, 2), 1) == NOT_FOUND

    def test_deterministic(self, ext7_10, field10):
        eps = fundamental_unit(field10).value
        a = ext7_10.search_norm_element(-(eps**3), 2)
        b = ext7_10.search_norm_element(-(eps**3), 2)
        assert a == b


class TestFamilyPolynomial:
    def test_scalar_witness(self, ext37_79, field79):
        eps = fundamental_unit(field79).value
        fam = ext37_79.family_polynomial(ext37_79.scalar(-eps))
        assert fam.certified_constant == eps**3
        assert fam.body[0] == QuadInteger(79, 0, 0)
        assert fam.witness_is_unit

    def test_round_trip_constant(self, ext37_79, field79):
        eps = fundamental_unit(field79).value
        alpha = ext37_79.scalar(-eps)
        fam = ext37_79.family_polynomial(alpha)
        cp = ext37_79.charpoly(alpha)
        rebuilt = (fam.body[0] + fam.certified_constant,) + fam.body[1:]
        assert rebuilt == cp.coeffs

    def test_wrong_norm(self, ext37_79):
        with pytest.raises(WrongNormError):
            ext37_79.family_polynomial(ext37_79.scalar(QuadInteger(79, 1, 0)))


class TestCompositionCheck:
    def test_order_3_pair_passes(self, ext37_79, field79):
        eps = fundamental_unit(field79).value
        alpha = ext37_79.scalar(-eps)
        c = prime_form(field79, 3)
        P = ext37_79.family_polynomial(alpha, attached_class=c)
        Q = ext37_79.family_polynomial(alpha, attached_class=c)
        W = ext37_79.family_polynomial(alpha, attached_class=c * c)
        chk = composition_check(P, Q, W)
        assert chk.constant_identity and chk.class_correspondence and chk.passed

    def test_principal_product_violates_order(self, ext37_79, field79):
        eps = fundamental_unit(field79).value
        alpha = ext37_79.scalar(-eps)
        c = prime_form(field79, 3)
        P = ext37_79.family_polynomial(alpha, attached_class=c)
        Q = ext37_79.family_polynomial(alpha, attached_class=c * c)
        W = ext37_79.family_polynomial(alpha, attached_class=c)
        with pytest.raises(OrderViolationError):
            composition_check(P, Q, W)

    def test_identity_case(self, ext37_79, field79):
        eps = fundamental_unit(field79).value
        alpha = ext37_79.scalar(-eps)
        c = prime_form(field79, 3)
        # P = Q = W built from the same class data and matched unit powers
        P = ext37_79.family_polynomial(alpha, attached_class=c)
        W = ext37_79.family_polynomial(alpha, attached_class=c * c)
        assert composition_check(P, P, W).passed


_MAX_CLASS_ORDER = 10_000  # the oracle gives up on larger class orders


def composition_check_oracle(P, Q, W) -> CompositionCheck:
    """composition_check on the form-level wide law, the oracle of the one
    on the class table."""
    if P.attached_class is None or Q.attached_class is None or W.attached_class is None:
        raise ValueError("all three polynomials need attached classes")
    e = P.descriptor.degree
    J = sign_class(P.attached_class.disc)
    one = wide_rep(principal_class(J.disc), J)

    def wide_order(cls: FormClass) -> int:
        """Order of the class in the ideal class group (wide)."""
        return len(cycle(
            wide_rep(cls, J), lambda x, y: wide_rep(x * y, J), one, _MAX_CLASS_ORDER
        ))

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


def _outcome(check, P, Q, W):
    """The CompositionCheck, or the class of the exception raised."""
    try:
        return check(P, Q, W)
    except Exception as exc:
        return type(exc)


class TestCompositionCheckOracle:
    """The table-based check against the form-level one, on every ordered
    triple of wide classes; degree 3 against wide groups C3, C6 and C2 x C6
    gives order-3 pairs, principal products and classes of other orders."""

    @pytest.fixture(scope="class")
    def fam(self, ext37_79, field79):
        return ext37_79.family_polynomial(ext37_79.scalar(-fundamental_unit(field79).value))

    def _attached(self, fam, cls):
        return dataclasses.replace(fam, attached_class=cls)

    @pytest.mark.parametrize("d,divs", [(79, (3,)), (235, (6,)), (730, (2, 6))])
    def test_every_triple_of_wide_classes(self, fam, d, divs):
        group = class_group(make_field(d), "wide")
        assert group.elementary_divisors == divs
        polys = [self._attached(fam, c) for c in group.elements]
        seen = set()
        for P, Q, W in itertools.product(polys, repeat=3):
            got = _outcome(composition_check, P, Q, W)
            assert got == _outcome(composition_check_oracle, P, Q, W)
            seen.add(got if isinstance(got, type) else got.passed)
        assert seen == {OrderViolationError, True, False}

    def test_other_discriminant(self, fam, field79):
        c = prime_form(field79, 3)
        other = class_group(make_field(235), "wide").generators[0]
        P = self._attached(fam, c)
        W = self._attached(fam, c * c)
        Q = self._attached(fam, other)
        for check in (composition_check, composition_check_oracle):
            with pytest.raises(DiscriminantMismatchError):
                check(P, Q, W)
            assert check(P, P, Q) == CompositionCheck(
                constant_identity=True, class_correspondence=False, passed=False
            )


class TestBasisCompatibility:
    def test_shared_discriminant_factor_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            RelativeExtension(period_polynomial(13, 3, 1), make_field(13))


@pytest.fixture(scope="module")
def ext7_13(desc7):
    return RelativeExtension(desc7, make_field(13))


class TestHalfIntegerCoordinates:
    """d = 1 (mod 4) fields put denominator-2 elements in every code path."""

    def _rand_half(self, rng):
        while True:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a - b) % 2 == 0 and (a % 2 or b % 2):
                return QuadInteger(13, a, b, 2)

    def test_charpoly_and_norm(self, ext7_13):
        rng = random.Random(3)
        for _ in range(120):
            coords = [
                self._rand_half(rng)
                if rng.random() < 0.5
                else QuadInteger(13, rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(3)
            ]
            a = ext7_13.element(coords)
            assert ext7_13.charpoly(a).constant == -ext7_13.relative_norm(a)

    def test_family_polynomial_with_half_unit(self, ext7_13):
        eps = fundamental_unit(make_field(13)).value
        assert eps.den == 2
        fam = ext7_13.family_polynomial(ext7_13.scalar(-eps))
        assert fam.certified_constant == eps**3

    def test_search_spans_half_candidates(self, ext7_13):
        eps = fundamental_unit(make_field(13)).value
        hit = ext7_13.search_norm_element(eps**3, eps.height())
        assert hit != NOT_FOUND
        assert ext7_13.relative_norm(hit) == eps**3
