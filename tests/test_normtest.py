import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnorm import cyclicext, intmath, normtest, quadfield
from quadnorm.compose import RelativeExtension
from quadnorm.cyclicext import (
    ClassPrimeNotSplitError,
    ConductorInvalidError,
    cyclic_descriptor,
    relative_discriminant,
)
from quadnorm.formclass import class_group
from quadnorm.harness import RunConfig, detection_sweep, scan
from quadnorm.normtest import (
    NoAdmissibleConductorError,
    admissible_conductors,
    detect_p_divisibility,
    inert_conductor_index,
    local_norm_test,
    norm_index,
    verify_class_order,
)
from quadnorm.intmath import is_prime, is_squarefree
from quadnorm.quadfield import (
    NotPrimeError,
    QuadInteger,
    RamifiedPrimeError,
    SplittingType,
    fundamental_unit,
    make_field,
    reduce_mod_prime,
    split_roots,
    splitting_type,
)

SQUAREFREE_BELOW_400 = [d for d in range(2, 400) if is_squarefree(d)]


class TestLocalNormTest:
    def test_unit_one_is_always_a_norm(self, field79, desc37):
        v = local_norm_test(field79, QuadInteger(79, 1, 0), desc37)
        assert v.is_norm and v.local_order == 1

    def test_split_q7_images_are_noncubes(self, field79, desc7):
        eps = fundamental_unit(field79).value
        verdicts = [local_norm_test(field79, eps, desc7, r) for r in (3, 4)]
        images = sorted(reduce_mod_prime(field79, eps, 7, r).c0 for r in (3, 4))
        assert images == [2, 4]
        assert all(not v.is_norm and v.local_order == 3 for v in verdicts)
        assert all(v.exponent_used == 2 and v.residue_degree == 1 for v in verdicts)

    def test_inert_q37_unit_is_a_local_norm(self, field79, desc37):
        # at an inert conductor the residue of the unit lies in the
        # norm-one subgroup: eps^(q+1) = Norm(eps) = +-1 in F_q^2, whose
        # order is prime to p, so the power test always returns 1
        eps = fundamental_unit(field79).value
        img = reduce_mod_prime(field79, eps, 37)
        frob_norm = img ** 38  # q + 1
        assert frob_norm.is_one()  # Norm(eps) = +1 here
        v = local_norm_test(field79, eps, desc37)
        assert v.residue_degree == 2 and v.exponent_used == 456
        assert v.is_norm and v.local_order == 1

    def test_rejects_conductor_ramified_in_field(self):
        F = make_field(37)
        eps = fundamental_unit(F).value
        with pytest.raises(RamifiedPrimeError):
            local_norm_test(F, eps, cyclic_descriptor(37, 3, 1))

    def test_rejects_non_unit(self, field79, desc37):
        with pytest.raises(ValueError):
            local_norm_test(field79, QuadInteger(79, 3, 0), desc37)

    def test_invariant_under_lift_change(self, field79, desc7):
        eps = fundamental_unit(field79).value
        base = local_norm_test(field79, eps, desc7, 3)
        for wa, wb in ((1, 0), (0, 1), (-2, 3), (5, -5)):
            shifted = eps + QuadInteger(79, 7 * wa, 7 * wb)
            img1 = reduce_mod_prime(field79, shifted, 7, 3)
            img2 = reduce_mod_prime(field79, eps, 7, 3)
            assert img1 == img2
        assert base.local_order == 3

    def test_split_roots_give_equal_orders(self):
        for d, q, p in ((79, 7, 3), (79, 13, 3), (10, 13, 3), (226, 31, 3)):
            F = make_field(d)
            desc = cyclic_descriptor(q, p, 1)
            eps = fundamental_unit(F).value
            r1, r2 = split_roots(F, q)
            v1 = local_norm_test(F, eps, desc, r1)
            v2 = local_norm_test(F, eps, desc, r2)
            assert v1.local_order == v2.local_order
            assert v1.is_norm == v2.is_norm


class TestNormIndex:
    def test_79_conductor_7(self, field79, desc7):
        rep = norm_index(field79, desc7)
        assert rep.index == 3 and rep.ratio_p_part == 3
        assert rep.caveat and rep.t == 0

    def test_79_conductor_37_is_1(self, field79, desc37):
        # the reference claim for this conductor expects 3; the residue
        # test provably yields 1 (see the local-norm test above), and the
        # gap is exactly the field-norm vs unit-norm caveat
        rep = norm_index(field79, desc37)
        assert rep.index == 1

    def test_10_conductor_7(self, field10, desc7):
        rep = norm_index(field10, desc7)
        assert rep.index == 1
        assert all(v.is_norm for v in rep.verdicts)

    def test_index_divides_degree(self):
        for d, q, p in ((79, 7, 3), (79, 13, 3), (10, 7, 3), (226, 11, 5)):
            rep = norm_index(make_field(d), cyclic_descriptor(q, p, 1))
            assert p**1 % rep.index == 0

    def test_invariant_under_coprime_unit_power(self, field79, desc7):
        eps = fundamental_unit(field79).value
        from math import lcm

        for j in (1, 2, 4, 5):
            verdicts = [
                local_norm_test(field79, eps**j, desc7, r) for r in split_roots(field79, 7)
            ]
            idx = 1
            for v in verdicts:
                idx = lcm(idx, v.local_order)
            assert idx == 3, f"j={j}"

    def test_c_estimate_tracks_unit_norm(self, field79, field10, desc7):
        assert norm_index(field79, desc7).c_estimate == "1 or 2"
        assert norm_index(field10, desc7).c_estimate == "1"

    def test_degree_9_split_conductor(self, field79):
        # hand oracle: sqrt(79) = +-15 mod 73, unit images 80 + 9*15 = 69
        # and 80 + 9*58 = 18; 69^8 = 55 mod 73 and 55 has order 9, so both
        # local orders are 9
        rep = norm_index(field79, cyclic_descriptor(73, 3, 2))
        assert rep.index == 9 and rep.ratio_p_part == 9
        assert sorted(v.local_order for v in rep.verdicts) == [9, 9]

    def test_degree_9_inert_conductor_is_trivial(self, field79):
        rep = norm_index(field79, cyclic_descriptor(19, 3, 2))
        assert rep.index == 1

    @pytest.mark.parametrize("q, tests", [(7, 2), (37, 1)])
    def test_tests_q_once_per_residue_map(self, monkeypatch, field79, q, tests):
        # 7 splits in Q(sqrt 79): two residue maps, each testing q once,
        # the default root taken with no further test; 37 is inert: one map
        desc, eps = cyclic_descriptor(q, 3, 1), fundamental_unit(field79)
        calls = []
        real = quadfield.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(quadfield, "is_prime", counting)
        norm_index(field79, desc, unit=eps)
        assert calls == [q] * tests

    def test_large_prime_degree_needs_no_factoring(self, monkeypatch):
        # the local orders divide p^n and are found by p-th powers, so no
        # step factors p^n (here p near 5 * 10^13, q = 2p + 1)
        F = make_field(10)

        def no_factoring(n):
            raise AssertionError(f"factorize({n}) on the local-norm path")

        monkeypatch.setattr(intmath, "factorize", no_factoring)
        p = 49999999000001
        rep = norm_index(F, cyclic_descriptor(2 * p + 1, p, 1))
        assert rep.index == p and [v.local_order for v in rep.verdicts] == [p, p]


class TestVerifyClassOrder:
    def test_d79_order_3_documented_disagreement(self, field79):
        cmp_ = verify_class_order(field79, 3, 3, 1, 50)
        assert cmp_.class_order == 3 and cmp_.class_order_p_part == 3
        proper = {r.q: r.index for r in cmp_.records if r.proper}
        assert proper == {19: 1, 37: 1}
        assert not cmp_.agreement
        assert set(cmp_.discrepancies) == {(19, 1), (37, 1)}

    def test_d10_agreement_on_3_part(self, field10):
        cmp_ = verify_class_order(field10, 3, 3, 1, 200)
        assert cmp_.class_order == 2 and cmp_.class_order_p_part == 1
        assert cmp_.agreement
        assert all(r.index == 1 for r in cmp_.records if r.proper)

    def test_no_admissible_conductor(self, field79):
        with pytest.raises(NoAdmissibleConductorError):
            verify_class_order(field79, 3, 3, 1, 10)

    def test_requires_split_class_prime(self, field79):
        with pytest.raises(ValueError):
            verify_class_order(field79, 37, 3, 1, 50)

    def test_refuses_a_ramified_class_prime_as_properness_does(self, field79, desc7):
        with pytest.raises(ClassPrimeNotSplitError, match="^class prime 2 must split in d=79$"):
            verify_class_order(field79, 2, 3, 1, 100)
        with pytest.raises(ClassPrimeNotSplitError):
            cyclicext.properness_report(field79, desc7, 2)

    def test_computes_the_unit_once(self, monkeypatch):
        calls = []
        real = normtest.fundamental_unit

        def counting(F):
            calls.append(F.d)
            return real(F)

        monkeypatch.setattr(normtest, "fundamental_unit", counting)
        cmp_ = verify_class_order(make_field(10), 3, 3, 1, 200)
        assert sum(r.proper for r in cmp_.records) > 1
        assert calls == [10]

    def test_passed_unit_gives_the_same_report(self, field79, desc7):
        eps = fundamental_unit(field79)
        assert norm_index(field79, desc7, unit=eps) == norm_index(field79, desc7)

    def test_rejects_unit_of_another_field(self, field79, field10, desc7):
        with pytest.raises(ValueError, match="unit of d=10"):
            norm_index(field79, desc7, unit=fundamental_unit(field10))


class TestDetect:
    def test_d79_finds_no_witness(self, field79):
        det = detect_p_divisibility(field79, 3, 50)
        assert det.witness_q is None
        assert det.conductors_checked == (19, 37)

    def test_d10_finds_no_witness(self, field10):
        det = detect_p_divisibility(field10, 3, 200)
        assert det.witness_q is None

    def test_d229_class_number_divisible_but_no_witness(self):
        F = make_field(229)
        assert class_group(F, "wide").h % 3 == 0
        det = detect_p_divisibility(F, 3, 500)
        assert det.witness_q is None  # recorded converse failure

    def test_admissible_conductors(self, field79):
        qs = admissible_conductors(field79, 3, 1, 50)
        assert qs == [7, 13, 19, 31, 37, 43]
        assert admissible_conductors(field79, 3, 2, 50) == [19, 37]
        assert admissible_conductors(field79, 3, 1, 0) == []
        assert admissible_conductors(field79, 3, 1, 2) == []

    @pytest.mark.parametrize("p", [0, 1, 2, 4, 9, -3])
    def test_p_that_is_not_an_odd_prime_is_refused_before_sieving(self, field79, monkeypatch, p):
        def no_sieve(n):
            raise AssertionError(f"sieve up to {n} for p = {p}")

        monkeypatch.setattr(normtest, "primes_up_to", no_sieve)
        normtest._sieved_primes.cache_clear()
        for qmax in (0, 10, 100):
            with pytest.raises(NotPrimeError, match=f"^{p} is not an odd prime$"):
                admissible_conductors(field79, p, 1, qmax)

    def test_qmax_above_the_ceiling_is_refused_before_sieving(self, field79, monkeypatch):
        def no_sieve(n):
            raise AssertionError(f"sieve up to {n} above the ceiling")

        monkeypatch.setattr(intmath, "primes_up_to", no_sieve)
        monkeypatch.setattr(normtest, "primes_up_to", no_sieve)
        qmax = normtest.MAX_QMAX + 1
        for call in (
            lambda: admissible_conductors(field79, 3, 1, qmax),
            lambda: detect_p_divisibility(field79, 3, qmax),
            lambda: verify_class_order(field79, 3, 3, 1, qmax),
            lambda: detection_sweep(2, (3,), qmax),
        ):
            with pytest.raises(ValueError, match="above the conductor-search ceiling"):
                call()

    def test_scan_sieves_once_per_qmax(self, monkeypatch):
        calls = []
        real = normtest.primes_up_to

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(normtest, "primes_up_to", counting)
        normtest._sieved_primes.cache_clear()
        records = list(scan(RunConfig(dmax=82, qmax=300, p_list=(3, 5))))
        assert len(records) == 50
        assert calls == [300]


class TestInertConductorLemma:
    """The full residue computation is the oracle for the lemma that
    decides every conductor of the witness search."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from(SQUAREFREE_BELOW_400),
        pn=st.sampled_from(((3, 1), (5, 1), (3, 2), (7, 1))),
    )
    def test_full_index_is_one_at_every_inert_conductor(self, d, pn):
        p, n = pn
        F = make_field(d)
        for q in admissible_conductors(F, p, n, 600):
            full = norm_index(F, cyclic_descriptor(q, p, n)).index
            if splitting_type(F, q) is SplittingType.INERT:
                assert full == 1, f"d={d} q={q} p^n={p}^{n}"
                assert inert_conductor_index(F, q, p, n) == full
            else:
                with pytest.raises(ValueError, match="not inert"):
                    inert_conductor_index(F, q, p, n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(d=st.sampled_from(SQUAREFREE_BELOW_400), p=st.sampled_from((3, 5, 7)))
    def test_detect_decides_exactly_the_inert_tower_conductors(self, d, p):
        F = make_field(d)
        expected = tuple(
            q for q in admissible_conductors(F, p, 1, 600)
            if (q - 1) % (p * p) == 0 and splitting_type(F, q) is SplittingType.INERT
        )
        det = detect_p_divisibility(F, p, 600)
        assert det.conductors_checked == expected
        assert det.witness_q is None and det.witness_index is None
        assert all(norm_index(F, cyclic_descriptor(q, p, 1)).index == 1 for q in expected)

    def test_premises_raise_the_descriptor_errors(self, field79):
        for q, p, n in ((163, 9, 1), (17, 2, 1), (39, 3, 1), (37, 3, 3)):
            with pytest.raises(ValueError) as lemma_err:
                inert_conductor_index(field79, q, p, n)
            with pytest.raises(ValueError) as desc_err:
                cyclic_descriptor(q, p, n)
            assert type(lemma_err.value) is type(desc_err.value)
            assert str(lemma_err.value) == str(desc_err.value)

    def test_disagreement_with_the_residue_test_raises(self, field79, monkeypatch):
        monkeypatch.setattr(normtest, "inert_conductor_index", lambda F, q, p, n=1: 3)
        with pytest.raises(ArithmeticError, match="inert conductor 19 for d=79"):
            detect_p_divisibility(field79, 3, 50)


def test_lemma_refuses_a_conductor_above_the_ceiling(field79, monkeypatch):
    def no_factoring(q):
        raise AssertionError("primitive root sought above the conductor ceiling")

    monkeypatch.setattr(cyclicext, "_primitive_root", no_factoring)
    q = cyclicext.MAX_CONDUCTOR + 1
    while not (q % 9 == 1 and is_prime(q)):
        q += 1
    for call in (lambda: inert_conductor_index(field79, q, 3), lambda: cyclic_descriptor(q, 3, 1)):
        with pytest.raises(cyclicext.ConductorInvalidError, match="above the conductor ceiling"):
            call()


class TestConductorConditions:
    """Each condition on a conductor is decided in one place."""

    def test_every_ramified_refusal_is_one_error(self):
        F = make_field(37)  # 37 divides the disc
        desc = cyclic_descriptor(37, 3, 1)
        eps = fundamental_unit(F).value
        for call in (
            lambda: reduce_mod_prime(F, eps, 37),
            lambda: local_norm_test(F, eps, desc),
            lambda: norm_index(F, desc),
            lambda: relative_discriminant(desc, F),
            lambda: RelativeExtension(desc, F),
        ):
            with pytest.raises(RamifiedPrimeError):
                call()

    def test_norm_index_refuses_before_the_unit(self, monkeypatch):
        def no_unit(F):
            raise AssertionError("unit computed at a ramified conductor")

        monkeypatch.setattr(normtest, "fundamental_unit", no_unit)
        with pytest.raises(RamifiedPrimeError, match="^conductor 37 ramifies in disc 37$"):
            norm_index(make_field(37), cyclic_descriptor(37, 3, 1))

    def test_local_test_reads_the_splitting_off_the_residue_map(
        self, field79, desc7, desc37, monkeypatch
    ):
        def no_splitting_type(F, q):
            raise AssertionError("splitting type decided again")

        eps = fundamental_unit(field79).value
        calls = [(desc7, 3), (desc7, 4), (desc37, None)]
        want = [local_norm_test(field79, eps, desc, r) for desc, r in calls]
        monkeypatch.setattr(normtest, "splitting_type", no_splitting_type)
        monkeypatch.setattr(quadfield, "splitting_type", no_splitting_type)
        got = [local_norm_test(field79, eps, desc, r) for desc, r in calls]
        assert got == want
        assert [(v.prime_label, v.residue_degree) for v in got] == [
            ("7@root=3", 1), ("7@root=4", 1), ("37", 2)
        ]

    @pytest.mark.parametrize("q", [7, 37])
    def test_norm_index_evaluates_the_symbol_once(self, field79, q, monkeypatch):
        # 7 splits and 37 is inert in Q(sqrt 79): either way one residue map
        # reads the splitting, and the other prime above 7 takes the other root
        desc = cyclic_descriptor(q, 3, 1)
        eps = fundamental_unit(field79)
        want = norm_index(field79, desc, unit=eps)
        symbol = intmath.kronecker
        calls = []

        def counted(a, m):
            calls.append((a, m))
            return symbol(a, m)

        for module in (intmath, quadfield, normtest):
            monkeypatch.setattr(module, "kronecker", counted)
        assert norm_index(field79, desc, unit=eps) == want
        assert calls == [(field79.disc, q)]
        assert len(want.verdicts) == (2 if q == 7 else 1)

    def test_detect_runs_the_lemma_once_per_search(self, monkeypatch):
        lemma = normtest.inert_conductor_index
        lemma_qs = []

        def counted(F, q, p, n=1):
            lemma_qs.append(q)
            return lemma(F, q, p, n)

        monkeypatch.setattr(normtest, "inert_conductor_index", counted)
        for d in filter(is_squarefree, range(2, 301)):
            F = make_field(d)
            for p in (3, 5):
                for qmax in (50, 2000):
                    lemma_qs.clear()
                    inert = tuple(
                        q for q in admissible_conductors(F, p, 2, qmax)
                        if splitting_type(F, q) is SplittingType.INERT
                    )
                    assert detect_p_divisibility(F, p, qmax).conductors_checked == inert
                    assert lemma_qs == list(inert[:1]), f"d={d} p={p} qmax={qmax}"

    @pytest.mark.parametrize("n", [0, -1])
    def test_exponent_below_1_is_refused(self, field79, n):
        with pytest.raises(ConductorInvalidError, match="^exponent must be >= 1$"):
            admissible_conductors(field79, 3, n, 200)

    def test_negative_qmax_is_refused(self, field79):
        with pytest.raises(ValueError, match="^qmax -1 is negative$"):
            admissible_conductors(field79, 3, 1, -1)
        assert admissible_conductors(field79, 3, 1, 0) == []
