import itertools
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnorm.harness import abelian_group_types
from quadnorm.intmath import (
    bareiss_det,
    closure,
    crt,
    cycle,
    invariant_factors,
    kronecker,
    p_part,
    power,
    primes_up_to,
    sqrt_mod_prime,
)
from quadnorm.transfer import FiniteGroup
from test_transfer import _generators, oracle_groups, symmetric


# Newton's identities, the relative charpoly's route before it was read off
# the conjugate images, kept as an oracle of it and of the period polynomial.
# The body is the former ``intmath.newton_charpoly``, unchanged.


def newton_charpoly(psums, div_exact) -> list:
    """Coefficients c_0, ..., c_(n-1), ascending, of the monic polynomial
    x^n + c_(n-1) x^(n-1) + ... + c_0 whose roots have the power sums
    s_1, ..., s_n given in ``psums`` (Newton's identities; Cohen, GTM 138).

    The identities s_k + c_(n-1) s_(k-1) + ... + c_(n-k+1) s_1
    + k c_(n-k) = 0 are solved for c_(n-k) with ``div_exact(x, k)``, the
    exact division by k in the ring of the power sums, which must raise
    when k does not divide x.  The ring needs only +, * and unary -.
    """
    top = []  # top[i - 1] = c_(n-i)
    for k in range(1, len(psums) + 1):
        acc = psums[k - 1]
        for i in range(1, k):
            acc = acc + top[i - 1] * psums[k - 1 - i]
        top.append(div_exact(-acc, k))
    return top[::-1]


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


class TestCycle:
    def test_multiplicative_orders(self):
        # 2 is a primitive root mod 11; 3 has order 5 mod 11
        assert cycle(2, mulmod(11), 1) == [pow(2, k, 11) for k in range(10)]
        assert cycle(3, mulmod(11), 1) == [pow(3, k, 11) for k in range(5)]
        assert cycle(1, mulmod(11), 1) == [1]

    def test_bound_is_inclusive(self):
        assert cycle(2, mulmod(11), 1, bound=10) == [pow(2, k, 11) for k in range(10)]

    def test_raises_past_bound(self):
        with pytest.raises(ArithmeticError, match="^element order exceeds 9$"):
            cycle(2, mulmod(11), 1, bound=9)
        C36 = FiniteGroup.cyclic_product([36])
        assert cycle(1, C36.mul, C36.identity, bound=36) == list(range(36))
        with pytest.raises(ArithmeticError, match="^element order exceeds 35$"):
            cycle(1, C36.mul, C36.identity, bound=35)


class TestClosure:
    def test_survey_seeds_match_naive_fixpoint(self):
        groups = [
            FiniteGroup.cyclic_product(factors, max_order=36)
            for factors in abelian_group_types(36)
        ]
        groups += [symmetric(3), symmetric(4)]
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
        G = symmetric(n)
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

    def test_seeded_joins_match_unseeded(self):
        """A walk seeded with H = <gens> gives <gens, g>, as the walk from
        the identity does, for every subgroup H and every g."""
        for G in oracle_groups():
            for H in G.all_subgroups():
                gens = tuple(sorted(H))
                for g in range(G.n):
                    seeded = closure(gens + (g,), G.mul, G.identity, base=H)
                    assert seeded == closure(gens + (g,), G.mul, G.identity)

    def test_floor_stops_exactly_below_it(self):
        """With a floor f, the seeded walk returns None exactly when <H, g>
        has an element outside H below f, and <H, g> otherwise."""
        stopped = 0
        for G in oracle_groups():
            for H in G.all_subgroups():
                gens = _generators(G, H)
                for g in range(G.n):
                    full = closure(gens + (g,), G.mul, G.identity)
                    lowest = min(full - H, default=G.n)
                    for f in range(G.n + 1):
                        got = closure(gens + (g,), G.mul, G.identity, base=H, floor=f)
                        assert got == (None if lowest < f else full)
                        stopped += got is None
        assert stopped > 0

    def test_empty_generators_give_identity(self):
        assert closure([], mulmod(7), 1) == frozenset({1})

    def test_residue_powers(self):
        assert closure([2], mulmod(7), 1) == frozenset({1, 2, 4})


class TestPPart:
    def test_largest_power_dividing(self):
        assert [p_part(n, 2) for n in (1, 2, 12, 96)] == [1, 2, 4, 32]
        assert p_part(2 * 3**5, 3) == 3**5

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_p_below_2_is_refused(self, p):
        # p = 1 divides every n, so the loop would never end
        with pytest.raises(ValueError, match="^p_part expects p > 1$"):
            p_part(12, p)


class TestSqrtModPrime:
    @staticmethod
    def smallest_roots(q):
        """Least root of every square mod q, by one linear scan of r."""
        roots = {}
        for r in range(q):
            roots.setdefault(r * r % q, r)
        return roots

    # 257, 7681 and 12289 have q - 1 divisible by 2^8, 2^9 and 2^12, so
    # Tonelli-Shanks runs many rounds of its 2-Sylow loop
    @pytest.mark.parametrize("q", primes_up_to(400)[1:] + [7681, 12289])
    def test_matches_linear_scan(self, q):
        roots = self.smallest_roots(q)
        for a in range(q):
            if a in roots:
                assert sqrt_mod_prime(a, q) == roots[a]
                assert sqrt_mod_prime(a + 5 * q, q) == roots[a]
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, q)


def test_every_non_residue_is_refused_below_200():
    """Euler's criterion is not evaluated before the root is: a non-residue
    fails the root's check at q = 3 (mod 4) and is caught inside the
    Tonelli-Shanks loop otherwise, q = 1 (mod 8) included."""
    primes = primes_up_to(199)[1:]
    assert {17, 41, 73, 89, 97, 113, 137, 193} <= set(primes)
    for q in primes:
        squares = {r * r % q for r in range(q)}
        for a in set(range(q)) - squares:
            for x in (a, a + 3 * q, a - q):
                with pytest.raises(ValueError, match=f"^{a} is not a square modulo {q}$"):
                    sqrt_mod_prime(x, q)


def reciprocity_kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), by the reciprocity loop that served any
    modulus before ``kronecker`` was narrowed to primes; its oracle."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        v += 1
        n //= 2
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def test_kronecker_matches_reciprocity_at_every_prime_below_3000():
    # q = 2 included; a runs over negatives, multiples of q and a > q
    for q in primes_up_to(3000):
        for a in range(-60, 400):
            assert kronecker(a, q) == reciprocity_kronecker(a, q), (a, q)


def test_crt_matches_scan():
    """Every residue pattern modulo 3, 5 and 7 has exactly one solution
    below 105, and ``crt`` returns it."""
    moduli = (3, 5, 7)
    first = {}
    for x in range(105):
        first.setdefault(tuple(x % n for n in moduli), x)
    assert len(first) == 105
    for residues, x in first.items():
        assert crt(residues, moduli) == x
        assert crt([a + 2 * n for a, n in zip(residues, moduli)], moduli) == x


# The invariant factors from their definition, an oracle that shares no
# step with the Smith form: s_k = d_k / d_(k-1), d_k the gcd of the k x k
# minors and d_0 = 1 (Cohen, GTM 138, 2.4.3).


def determinantal_factors(rows: list[list[int]]) -> list[int]:
    n = len(rows)
    d = [1]
    for k in range(1, n + 1):
        g = 0
        for I in itertools.combinations(range(n), k):
            for J in itertools.combinations(range(n), k):
                g = gcd(g, bareiss_det([[rows[i][j] for j in J] for i in I]))
        d.append(g)
    return [d[k] // d[k - 1] for k in range(1, n + 1)]


NONSINGULAR = (
    st.integers(1, 4)
    .flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    .filter(lambda rows: bareiss_det(rows) != 0)
)


class TestInvariantFactors:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=NONSINGULAR)
    @example(rows=[[4, 0], [0, 6]])  # a diagonal that is not a chain
    @example(rows=[[2, 0, 0], [-1, 4, 0], [0, -2, 4]])  # a class group's relations
    @example(rows=[[0, 0, 3], [0, 5, 0], [7, 0, 0]])  # no pivot on the diagonal
    def test_match_the_determinantal_divisors(self, rows):
        got = invariant_factors(rows)
        assert got == [x for x in determinantal_factors(rows) if x > 1]
        assert all(b % a == 0 for a, b in zip(got, got[1:])), got
        assert prod(got) == abs(bareiss_det(rows))

    def test_empty_and_unimodular_have_none(self):
        assert invariant_factors([]) == []
        assert invariant_factors([[2, 1], [1, 1]]) == []

    def test_singular_is_refused(self):
        with pytest.raises(ValueError, match="nonsingular"):
            invariant_factors([[1, 2], [2, 4]])
