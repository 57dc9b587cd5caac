import functools
import hashlib
import tracemalloc
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnorm.cyclicext import (
    ClassPrimeNotSplitError,
    ConductorInvalidError,
    CyclicExtensionDescriptor,
    check_conductor,
    cyclic_descriptor,
    image_block,
    kronecker_modulus,
    mersenne_reduction,
    period_mul,
    period_polynomial,
    prime_power_modulus,
    properness_report,
    relative_discriminant,
    same_field_by_split_patterns,
    spread_bits,
    tower_certificate,
)
from quadnorm.intmath import bareiss_det, poly_discriminant, primes_up_to
from quadnorm.quadfield import NotPrimeError, RamifiedPrimeError, make_field
from test_intmath import newton_charpoly


class TestPeriodPolynomial:
    def test_conductor_7(self, desc7):
        assert desc7.period_poly == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1
        assert desc7.power_basis_index == 1

    def test_conductor_13(self, desc13):
        assert desc13.period_poly == (1, -4, 1, 1)  # x^3 + x^2 - 4x + 1
        assert poly_discriminant(list(desc13.period_poly)) == 169

    def test_conductor_37_disc_and_field(self, desc37):
        assert poly_discriminant(list(desc37.period_poly)) == 37**2
        assert same_field_by_split_patterns(desc37, [-11, 21, -10, 1], 1000)

    def test_conductor_31_power_basis_index_is_2(self):
        # the cubic period polynomial of conductor 31 is x^3 + x^2 - 10x - 8
        # with discriminant 4 * 31^2: the periods' power basis is not the
        # maximal order there, so disc(poly) = q^2 holds only up to a square
        d31 = period_polynomial(31, 3, 1)
        assert d31.period_poly == (-8, -10, 1, 1)
        assert poly_discriminant(list(d31.period_poly)) == 4 * 31**2
        assert d31.power_basis_index == 2

    def test_difference_norms_must_be_a_multiple_of_q(self, monkeypatch):
        # crafted images (0, 1, 9) at q = 31: x^3 - 10x^2 + 9x and the norm
        # (0 - 1)(1 - 9)(9 - 0) = 72 are within their bounds, but 72 is not
        # a multiple of 31
        desc = cyclic_descriptor(31, 3, 1)
        monkeypatch.setattr(desc, "period_images", lambda z, M: (0, 1, 9))
        with pytest.raises(ArithmeticError, match="nonzero multiple of 31"):
            desc.period_poly

    def test_maximal_real_layers_have_index_1(self):
        # periods of length two generate the full ring of integers
        assert period_polynomial(11, 5, 1).power_basis_index == 1
        assert period_polynomial(19, 3, 2).power_basis_index == 1

    def test_degree_9_disc(self):
        d19 = period_polynomial(19, 3, 2)
        assert d19.degree == 9
        assert poly_discriminant(list(d19.period_poly)) == 19**8

    def test_polynomial_builds_no_rows(self):
        # the polynomial comes from the period images alone
        desc = period_polynomial(101, 5, 2)
        assert "rows" not in vars(desc)

    def test_conductor_must_match(self):
        with pytest.raises(ConductorInvalidError):
            period_polynomial(11, 3, 1)  # 11 != 1 mod 3

    def test_conductor_must_be_prime(self):
        with pytest.raises(NotPrimeError):
            period_polynomial(91, 3, 1)

    def test_p_must_be_odd_prime(self):
        with pytest.raises(NotPrimeError):
            period_polynomial(17, 2, 1)

    @pytest.mark.parametrize("q,p,n", [(7, 3, 1), (13, 3, 1), (19, 3, 2), (11, 5, 1)])
    def test_vieta_consistency(self, q, p, n):
        desc = period_polynomial(q, p, n)
        e = desc.degree
        coeffs = desc.period_poly
        assert coeffs[e] == 1 and coeffs[e - 1] == 1  # sum of periods = -1
        # product of all periods computed in the period ring equals the
        # constant term up to the degree sign
        # integer vectors c are the pair vectors (2c, 0) of the period product
        prod = [(2, 0) if i == 0 else (0, 0) for i in range(e)]
        for j in range(1, e):
            basis_j = [(2, 0) if i == j else (0, 0) for i in range(e)]
            prod = period_mul(prod, basis_j, desc.rows, 0)
        assert all(v == 0 for _, v in prod)
        prod = [u // 2 for u, _ in prod]
        expected_scalar = (-1) ** e * coeffs[0]
        assert all(c == -expected_scalar for c in prod)


def test_hankel_discriminant_matches_sylvester_below_1000():
    """The construction reads I off the norms of the period differences,
    disc = (prod over k <= (e-1)/2 of N(eta_0 - eta_k))^2 = q^(e-1) * I^2;
    the Sylvester determinant ``poly_discriminant`` is the oracle, on all
    154 period polynomials q < 1000 of degree 3, 5, 9 and 25.  Polynomials
    and indices are pinned by the SHA-256 of their repr, computed when the
    check ran on the Sylvester determinant and kept through the Hankel
    determinant of the power sums (``power_sum_period_poly`` below)."""
    polys = []
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        e = p**n
        for q in primes_up_to(999):
            if q % e != 1:
                continue
            desc = period_polynomial(q, p, n)
            index = desc.power_basis_index
            assert poly_discriminant(list(desc.period_poly)) == q ** (e - 1) * index**2, q
            polys.append((q, e, desc.period_poly, index))
    assert len(polys) == 154
    digest = hashlib.sha256(repr(polys).encode()).hexdigest()
    assert digest == "707c0a08440fcbbd0495d73e907a3ee58ec16705fab7be443a9971cfde21af80"


# The period polynomial as computed before it was read off the period
# images, kept as the oracle: power sums by the period product, Newton's
# identities over the integers and the Hankel determinant of the power sums.
# The body is the former descriptor property, unchanged.


def exact_div(a: int, k: int) -> int:
    """a / k, raising ArithmeticError unless k divides a."""
    q, r = divmod(a, k)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {k}")
    return q


def power_sum_period_poly(self) -> tuple[tuple[int, ...], int]:
    """(coefficients, power basis index) of the period polynomial."""
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
    return tuple(coeffs), root


def _assert_matches_power_sums(q, p, n):
    desc = cyclic_descriptor(q, p, n)
    want = power_sum_period_poly(desc)
    assert (desc.period_poly, desc.power_basis_index) == want, desc


class TestPowerSumOracle:
    def test_matches_below_2000(self):
        count = 0
        for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)):
            for q in primes_up_to(1999):
                if q % p**n == 1:
                    _assert_matches_power_sums(q, p, n)
                    count += 1
        assert count == 351

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_at_the_largest_conductor_below_20000(self, p):
        e = p * p
        q = max(q for q in primes_up_to(19_999) if q % e == 1)
        assert q in (19_801, 19_993)
        _assert_matches_power_sums(q, p, 2)


def test_swapped_label_is_refused_below_1000():
    """A label table with 2 and the first residue of another coset swapped
    gives wrong period images; the bounds and the divisibility of the norms
    refuse every one of the 154 polynomials of degree 3, 5, 9 and 25."""
    count = 0
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        for q in primes_up_to(999):
            if q % p**n != 1:
                continue
            desc = CyclicExtensionDescriptor(q, p, n)
            labels = desc.labels
            x = next(x for x in range(1, q) if labels[x] != labels[2])
            labels[2], labels[x] = labels[x], labels[2]
            with pytest.raises(ArithmeticError):
                desc.period_poly
            count += 1
    assert count == 154


class TestPeriodRows:
    def test_rows_are_sparse_below_1000(self):
        # for m != 0 each of the f elements of g^m * H adds to one entry of
        # row m, so at most f entries are nonzero
        for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
            e = p**n
            for q in primes_up_to(999):
                if q % e != 1:
                    continue
                desc = cyclic_descriptor(q, p, n)
                rows = desc.rows
                assert len(rows) == e
                for m, row in enumerate(rows):
                    ks = [k for k, _ in row]
                    assert ks == sorted(set(ks)) and all(0 <= k < e for k in ks)
                    assert all(t != 0 for _, t in row)
                    if m:
                        assert len(row) <= desc.f, (q, m)

    @pytest.mark.parametrize(
        "q,p,n", [(7, 3, 1), (13, 3, 1), (11, 5, 1), (19, 3, 2), (101, 5, 2), (997, 3, 1)]
    )
    def test_table_is_row_0_shifted(self, q, p, n):
        desc = cyclic_descriptor(q, p, n)
        e, T = desc.degree, desc.struct_constants
        dense = [[0] * e for _ in range(e)]
        for m, row in enumerate(desc.rows):
            for k, t in row:
                dense[m][k] = t
        for i in range(e):
            for j in range(e):
                for k in range(e):
                    assert T[i][j][k] == dense[(j - i) % e][(k - i) % e]


class TestSplitting:
    def test_3_inert_in_conductor_37(self, desc37):
        assert desc37.residue_degree(3) == 3
        assert pow(3, 12, 37) != 1  # the power criterion behind it

    def test_ramified_is_zero(self, desc37):
        assert desc37.residue_degree(37) == 0

    def test_2_inert_in_conductor_7(self, desc7):
        assert desc7.residue_degree(2) == 3

    @pytest.mark.parametrize("q,p", [(7, 3), (13, 3), (11, 5)])
    def test_power_criterion_degree_p(self, q, p):
        desc = cyclic_descriptor(q, p, 1)
        for ell in primes_up_to(500):
            if ell == q:
                continue
            inert = desc.residue_degree(ell) == p
            assert inert == (pow(ell, (q - 1) // p, q) != 1)

    @pytest.mark.parametrize("q,p", [(7, 3), (13, 3), (11, 5)])
    def test_inert_density(self, q, p):
        desc = cyclic_descriptor(q, p, 1)
        primes = [ell for ell in primes_up_to(10_000) if ell != q]
        inert = sum(1 for ell in primes if desc.residue_degree(ell) == p)
        assert abs(inert / len(primes) - (1 - 1 / p)) < 0.05


class TestDescriptorMemory:
    def test_large_conductor_keeps_degree_sized_state(self):
        q = 2_000_029  # prime, 1 mod 3
        tracemalloc.start()
        try:
            desc = cyclic_descriptor(q, 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert desc.residue_degree(8) == 1  # a cube lies in the subgroup
        assert (desc.residue_degree(2) == 3) == (pow(2, desc.f, q) != 1)


# The coset labels by a p^n-entry discrete-log table, and the period
# subgroup as a sorted tuple: the inputs of the oracles below and of the
# brute-force cyclotomic numbers in ``test_compose``.  The bodies are the
# former descriptor members, unchanged; the cached properties are cached
# per descriptor.


@functools.cache
def _dlog(self) -> dict[int, int]:
    # x^f lies in the order-degree subgroup generated by g^f, and its
    # discrete log there is the discrete log of x base g, mod degree
    gf = pow(self.g, self.f, self.q)
    return {pow(gf, k, self.q): k for k in range(self.degree)}


def coset_label(self, x: int) -> int:
    x %= self.q
    if x == 0:
        raise ValueError("0 has no coset label")
    return _dlog(self)[pow(x, self.f, self.q)]


@functools.cache
def subgroup(self) -> tuple[int, ...]:
    """The f elements of the index-p^n subgroup of (Z/q)^*, ascending."""
    gd = pow(self.g, self.degree, self.q)
    return tuple(sorted(pow(gd, j, self.q) for j in range(self.f)))


# The residue degree as computed before it was the order of ell^f, kept as
# the oracle: it reads the discrete-log table behind ``coset_label``.  The
# body is the former descriptor method, unchanged.


def dlog_residue_degree(self, ell: int) -> int:
    """Order of ell in (Z/q)^* modulo the period subgroup.

    Returns 0 for the ramified case ell = q; the prime is inert in the
    cyclic field exactly when the result equals the degree.
    """
    if ell % self.q == 0:
        return 0
    k = coset_label(self, ell)
    return self.degree // gcd(k, self.degree)


class TestResidueDegree:
    def test_matches_the_discrete_log_oracle_below_1000(self):
        count = 0
        for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
            for q in primes_up_to(999):
                if q % p**n == 1:
                    desc = cyclic_descriptor(q, p, n)
                    for ell in range(1, 2 * q):
                        assert desc.residue_degree(ell) == dlog_residue_degree(desc, ell), (
                            desc, ell)
                    count += 1
        assert count == 154

    def test_safe_prime_descriptor_keeps_no_table(self, field79):
        # q = 2p + 1: the discrete-log table would have (q - 1)/2 entries
        tracemalloc.start()
        try:
            desc = cyclic_descriptor(2_000_303, 1_000_151, 1)
            degree_of_2 = desc.residue_degree(2)
            report = properness_report(field79, desc, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # f = 2 and ell^2 != 1, so 2 and 3 are inert
        assert degree_of_2 == desc.degree == 1_000_151
        assert report.inert_class_prime
        assert "g" not in vars(desc) and "_dlog" not in vars(desc)

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_huge_exponent_is_refused_without_the_power(self, n):
        with pytest.raises(ConductorInvalidError) as err:
            check_conductor(7, 3, n)
        assert str(err.value) == f"7 is not 1 mod 3^{n}"


# The rows and the period images as built before the label table, kept as
# oracles: both walk the cosets g^m * H, the rows labelling each x + 1 by a
# modular power and the images summing a list of the q powers of z.  The
# bodies are the former descriptor methods, unchanged.


def coset_walk_rows(self):
    # Substituting h2 = h1 * h in period_0 * period_m, the sum over
    # h1, h2 in H of zeta^(h1 + g^m h2), gives the cyclotomic-number
    # identity period_0 * period_m = sum over h in H of
    # period_label(1 + g^m h).  The one h with 1 + g^m h = 0 contributes
    # f * 1 = -f * (sum of periods).  H = <g^e> is walked, not stored.
    q, e, f, g = self.q, self.degree, self.f, self.g
    dlog = _dlog(self)
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


def coset_walk_period_images(self, z: int, modulus: int) -> tuple[int, ...]:
    """P[m] = sum over h in H of z^(g^m h) mod ``modulus``: the periods
    under zeta -> z, for a z with Phi_q(z) = 0 modulo ``modulus``."""
    q, g = self.q, self.g
    zpow = [1] * q
    acc = 1
    for k in range(1, q):
        acc = acc * z % modulus
        zpow[k] = acc
    ge = pow(g, self.degree, q)
    images = []
    gm = 1
    for _ in range(self.degree):
        s, x = 0, gm  # x runs over g^m * H
        for _ in range(self.f):
            s += zpow[x]
            x = x * ge % q
        images.append(s % modulus)
        gm = gm * g % q
    return tuple(images)


def _assert_tables_match_oracles(desc, moduli):
    assert desc.rows == coset_walk_rows(desc), desc
    for modulus in moduli:
        M, z = modulus(desc.q, 2**64)
        assert desc.period_images(z, M) == coset_walk_period_images(desc, z, M), (desc, M)


class TestLabelTable:
    def test_rows_and_images_match_the_coset_walks_below_1000(self):
        count = 0
        for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
            for q in primes_up_to(999):
                if q % p**n == 1:
                    desc = cyclic_descriptor(q, p, n)
                    _assert_tables_match_oracles(desc, (kronecker_modulus, prime_power_modulus))
                    count += 1
        assert count == 154

    @pytest.mark.parametrize("p", [3, 7])
    def test_rows_and_images_match_the_coset_walks_at_100003(self, p):
        # the oracle's list of q powers modulo Phi_q(2^w), which has more
        # than q bits, would take q^2/2 bits here: only ell^k is compared
        _assert_tables_match_oracles(cyclic_descriptor(100_003, p, 1), (prime_power_modulus,))

    @pytest.mark.parametrize(
        "q,p,n", [(7, 3, 1), (997, 3, 1), (19, 3, 2), (919, 3, 2), (101, 5, 2), (601, 5, 2)]
    )
    def test_labels_are_coset_labels(self, q, p, n):
        desc = cyclic_descriptor(q, p, n)
        labels = desc.labels
        assert len(labels) == q
        assert all(labels[x] == coset_label(desc, x) for x in range(1, q))

    def test_period_images_keep_no_list_of_powers(self):
        q = 100_003
        desc = cyclic_descriptor(q, 3, 1)
        M, z = prime_power_modulus(q, 2**64)
        tracemalloc.start()
        try:
            images = desc.period_images(z, M)  # builds the q-byte label table too
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert images == coset_walk_period_images(desc, z, M)

    @pytest.mark.parametrize("modulus", [kronecker_modulus, prime_power_modulus])
    @pytest.mark.parametrize(
        "q,p,n,edge",
        [
            (7, 3, 1, "short"),
            (19, 3, 2, "short"),
            (73, 3, 1, "multiple"),
            (41, 5, 1, "multiple"),  # exactly one block
            (433, 3, 1, "multiple"),
            (1297, 3, 2, "multiple"),
            (79, 3, 1, "remainder"),
            (997, 3, 1, "remainder"),
            (751, 5, 2, "remainder"),
        ],
    )
    def test_period_images_at_block_edges(self, q, p, n, edge, modulus):
        desc = cyclic_descriptor(q, p, n)
        block = image_block(q, desc.degree)
        assert edge == (
            "short" if q - 1 < block else "multiple" if (q - 1) % block == 0 else "remainder"
        )
        M, z = modulus(q, 2**64)
        assert desc.period_images(z, M) == coset_walk_period_images(desc, z, M)


class TestLabelMasks:
    @pytest.mark.parametrize(
        "q,p,n", [(7, 3, 1), (997, 3, 1), (19, 3, 2), (919, 3, 2), (101, 5, 2), (601, 5, 2)]
    )
    def test_masks_are_the_labels_bit_by_bit(self, q, p, n):
        desc = cyclic_descriptor(q, p, n)
        labels, masks = desc.labels, desc.masks
        assert len(masks) == desc.degree
        for m, mask in enumerate(masks):
            assert not mask & 1 and mask.bit_length() <= q
            assert all((mask >> x & 1) == (labels[x] == m) for x in range(1, q))
            assert mask.bit_count() == desc.f
        assert sum(mask.bit_count() for mask in masks) == q - 1

    def test_kronecker_images_match_the_coset_walk_below_1000(self):
        # at the least w, 1, where the images are the masks themselves,
        # and at w = 3, where the masks' digits are spaced by two zeros
        count = 0
        for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
            for q in primes_up_to(999):
                if q % p**n != 1:
                    continue
                desc = cyclic_descriptor(q, p, n)
                for bound in (0, kronecker_modulus(q, kronecker_modulus(q, 0)[0])[0]):
                    desc._ring_image = None
                    image = desc.ring_image(bound)
                    M, z = kronecker_modulus(q, bound)
                    w = z.bit_length() - 1
                    assert w == (1 if bound == 0 else 3)
                    assert image.modulus == M and all(0 <= P < M for P in image.periods)
                    assert image.reduce(-1) == (1 << w * q) - 2  # modulo 2^(wq) - 1
                    want = coset_walk_period_images(desc, z, M)
                    assert tuple(P % M for P in image.periods) == want, (q, w)
                count += 1
        assert count == 154

    @pytest.mark.parametrize("w", [6, 7, 12])
    def test_kronecker_images_at_wide_digits(self, w):
        # wider spacings than the sweep's w = 3, at the images' full width
        desc = cyclic_descriptor(31, 3, 1)
        bound = ((1 << (w - 1) * 31) - 1) // ((1 << w - 1) - 1)
        M, z = kronecker_modulus(31, bound)
        assert z == 1 << w
        P = desc.ring_image(bound).periods
        assert tuple(x % M for x in P) == coset_walk_period_images(desc, z, M)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=st.integers(0, 2**300), w=st.integers(1, 40))
    def test_spread_bits(self, x, w):
        assert spread_bits(x, w) == sum(1 << w * i for i in range(x.bit_length()) if x >> i & 1)


class TestMersenneReduction:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(width=st.integers(1, 2500), data=st.data())
    def test_agrees_with_the_remainder(self, width, data):
        N = (1 << width) - 1
        reduce = mersenne_reduction(width)
        # negative values, values at and above N, and products of residues
        # up to 2^(3 * width), far above 2^(2 * width)
        xs = [
            data.draw(st.integers(-(1 << 3 * width), -1)),
            data.draw(st.integers(N, N + (1 << width + 1))),
            data.draw(st.integers(0, N)) * data.draw(st.integers(0, N)) * 13,
            -data.draw(st.integers(0, N)) * data.draw(st.integers(0, N)) << width,
            N,
            -1,
            -N,
        ]
        for x in xs:
            r = reduce(x)
            assert 0 <= r < 1 << width
            assert r % N == x % N


class TestTower:
    def test_37_has_tower(self):
        assert tower_certificate(37, 3, 1).exists

    def test_7_has_none(self):
        assert not tower_certificate(7, 3, 1).exists

    def test_101_for_5(self):
        cert = tower_certificate(101, 5, 1)
        assert cert.exists and cert.k == 2


class TestRelativeDiscriminant:
    def test_inert_conductor(self, field79, desc37):
        rd = relative_discriminant(desc37, field79)
        assert rd.exponent == 2
        assert rd.norm == 37**4
        assert len(rd.primes) == 1 and rd.primes[0][1] == 2

    def test_split_conductor(self, field79, desc7):
        rd = relative_discriminant(desc7, field79)
        assert rd.exponent == 2
        assert len(rd.primes) == 2 and all(f == 1 for _, f in rd.primes)

    def test_degree_5_exponent(self, field79):
        rd = relative_discriminant(cyclic_descriptor(11, 5, 1), field79)
        assert rd.exponent == 4

    def test_ramified_conductor_rejected(self):
        F = make_field(21)  # disc 84, divisible by 7
        with pytest.raises(RamifiedPrimeError):
            relative_discriminant(cyclic_descriptor(7, 3, 1), F)


class TestProperness:
    def test_79_q37_l3_holds(self, field79, desc37):
        rep = properness_report(field79, desc37, 3)
        assert rep.overall
        assert rep.inert_class_prime and rep.tower.exists and rep.disc_primes_inert_in_N

    def test_79_q7_fails_inert_conductor(self, field79, desc7):
        rep = properness_report(field79, desc7, 3)
        assert not rep.overall
        assert not rep.disc_primes_inert_in_N  # 7 splits in Q(sqrt(79))
        assert rep.inert_class_prime  # the class prime condition itself holds

    def test_10_q7_fails_tower(self, field10, desc7):
        rep = properness_report(field10, desc7, 3)
        assert not rep.overall
        assert rep.disc_primes_inert_in_N  # 7 is inert in Q(sqrt(10))
        assert not rep.tower.exists

    def test_requires_split_class_prime(self, field79, desc37):
        with pytest.raises(ClassPrimeNotSplitError):
            properness_report(field79, desc37, 37)


class TestFieldComparison:
    def test_appendix_cubic_is_conductor_7(self, desc7):
        assert same_field_by_split_patterns(desc7, [-167, 101, -18, 1], 1000)

    def test_wrong_field_detected(self, desc13):
        # the conductor-7 cubic does not define the conductor-13 field
        assert not same_field_by_split_patterns(desc13, [-1, -2, 1, 1], 200)
