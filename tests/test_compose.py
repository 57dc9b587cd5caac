import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnorm.compose import (
    NOT_FOUND,
    IncompatibleBasisError,
    OrderViolationError,
    RelativeExtension,
    WrongNormError,
    composition_check,
)
from quadnorm.cyclicext import period_polynomial
from quadnorm.formclass import prime_form
from quadnorm.quadfield import QuadInteger, fundamental_unit, make_field


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
        assert ext7_79.relative_norm(ext7_79.from_int(1)) == QuadInteger(79, 1, 0)

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


class TestStructConstants:
    @pytest.mark.parametrize(
        "q,p,n",
        [(7, 3, 1), (13, 3, 1), (11, 5, 1), (19, 3, 2), (101, 5, 2), (997, 3, 1)],
    )
    def test_match_brute_cyclotomic(self, q, p, n):
        desc = period_polynomial(q, p, n)
        e = desc.degree
        H = desc.subgroup
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


class TestSearch:
    def test_finds_one_at_bound_1(self, ext7_10):
        hit = ext7_10.search_norm_element(QuadInteger(10, 1, 0), 1)
        assert hit != NOT_FOUND
        assert hit.is_scalar() and hit.coords[0] == QuadInteger(10, -1, 0)

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
            ext37_79.family_polynomial(ext37_79.from_int(1))


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


class TestBasisCompatibility:
    def test_shared_discriminant_factor_rejected(self):
        with pytest.raises(IncompatibleBasisError):
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
