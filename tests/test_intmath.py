import itertools

import pytest

from quadnorm.harness import abelian_group_types
from quadnorm.intmath import closure, element_order, power
from quadnorm.transfer import FiniteGroup


def mulmod(m):
    return lambda x, y: x * y % m


def naive_closure(seed, mul, one):
    """Fixpoint of out <- out | {x*y : x, y in out}."""
    out = {one} | set(seed)
    while True:
        grown = out | {mul(x, y) for x in out for y in out}
        if grown == out:
            return frozenset(out)
        out = grown


def commutators(G):
    return {
        G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b]))
        for a in range(G.n)
        for b in range(G.n)
    }


class TestPower:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64, 10**30 + 7])
    def test_matches_builtin_pow(self, k):
        for m in (2, 97, 1_000_003, 2**61 - 1):
            for x in (0, 1, 3, m - 1, 123_456_789 % m):
                assert power(x, k, mulmod(m), 1) == pow(x, k, m)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            power(3, -1, mulmod(7), 1)


class TestElementOrder:
    def test_multiplicative_orders(self):
        # 2 is a primitive root mod 11; 3 has order 5 mod 11
        assert element_order(2, mulmod(11), 1) == 10
        assert element_order(3, mulmod(11), 1) == 5
        assert element_order(1, mulmod(11), 1) == 1

    def test_bound_is_inclusive(self):
        assert element_order(2, mulmod(11), 1, bound=10) == 10

    def test_raises_past_bound(self):
        with pytest.raises(ArithmeticError):
            element_order(2, mulmod(11), 1, bound=9)
        C36 = FiniteGroup.cyclic_product([36])
        assert element_order(1, C36.mul, C36.identity, bound=36) == 36
        with pytest.raises(ArithmeticError):
            element_order(1, C36.mul, C36.identity, bound=35)


class TestClosure:
    def test_survey_seeds_match_naive_fixpoint(self):
        groups = [
            FiniteGroup.cyclic_product(factors, max_order=36)
            for factors in abelian_group_types(36)
        ]
        groups += [FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)]
        checked = 0
        for G in groups:
            for H in G.all_subgroups():
                for g in range(G.n):
                    if g in H:
                        continue
                    seed = H | {g}
                    got = closure(seed, G.mul, G.identity)
                    assert got == naive_closure(seed, G.mul, G.identity)
                    checked += 1
        assert checked == 23566

    @pytest.mark.parametrize("n, derived_order", [(3, 3), (4, 12)])
    def test_commutator_closure_is_alternating_group(self, n, derived_order):
        G = FiniteGroup.symmetric(n)
        seed = commutators(G)
        got = closure(seed, G.mul, G.identity)
        assert got == naive_closure(seed, G.mul, G.identity)
        assert got == G.derived_subgroup()
        even = {
            i
            for i, perm in enumerate(G.element_labels)
            if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0
        }
        assert got == even and len(got) == derived_order

    def test_empty_generators_give_identity(self):
        assert closure([], mulmod(7), 1) == frozenset({1})

    def test_residue_powers(self):
        assert closure([2], mulmod(7), 1) == frozenset({1, 2, 4})
