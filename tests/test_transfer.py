import importlib
import itertools
import random

import pytest

from quadnorm.harness import abelian_group_types
from quadnorm.intmath import closure, power
from quadnorm.transfer import (
    DEFAULT_MAX_ORDER,
    LATTICE_KINDS,
    CommutatorNotContainedError,
    FiniteGroup,
    GroupRingElement,
    GroupTableError,
    NotNormalError,
    NotSubgroupError,
    augmentation_membership,
    diagram_check,
    restricted_transfer,
    transfer,
)


# The symmetric groups and the full normality check, kept as oracles: the
# bodies are the former ``FiniteGroup`` members, unchanged.


def symmetric(n: int, max_order: int = DEFAULT_MAX_ORDER, cls=FiniteGroup):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms
    ]
    g = cls(table, name=f"S{n}", max_order=max_order)
    g.element_labels = tuple(perms)
    return g


def is_normal(self, H) -> bool:
    H = frozenset(H)
    return all(
        self.mul(self.mul(g, h), self.inverse[g]) in H
        for g in range(self.n)
        for h in H
    )


def klein_four():
    return FiniteGroup.cyclic_product([2, 2])


def sub_by_labels(G, wanted):
    return [i for i, lab in enumerate(G.element_labels) if lab in wanted]


def relabel_table(table, seed):
    """The table with its elements renamed by a seeded permutation."""
    n = len(table)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def relabel(base, seed):
    return FiniteGroup(relabel_table(base.table, seed), name=base.name, max_order=base.n)


def relabelled(orders, seed):
    """The cyclic product with its elements renamed by a seeded permutation,
    so that the identity is not 0 and least elements carry no structure."""
    return relabel(FiniteGroup.cyclic_product(orders), seed)


def oracle_groups():
    return [
        symmetric(3),
        symmetric(4),
        relabelled([2, 2, 2], 11),
        relabelled([4, 2], 12),
        relabelled([3, 3], 13),
    ]


def coset_product_transfer(G, H, g, reps=None):
    """The transfer from its definition, from scratch on every call: the
    subgroup check, a transversal (least coset elements unless given), the
    coset map and the commutator closure H'."""
    Hset = G.check_subgroup(H)
    if reps is None:
        seen, reps = set(), []
        for x in range(G.n):
            if x not in seen:
                reps.append(x)
                seen.update(G.mul(x, h) for h in Hset)
    coset_of = {G.mul(r, h): r for r in reps for h in Hset}
    assert len(coset_of) == G.n
    prod = G.identity
    for r in reps:
        gr = G.mul(g, r)
        factor = G.mul(G.inverse[coset_of[gr]], gr)
        assert factor in Hset
        prod = G.mul(prod, factor)
    commutators = {
        G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b])) for a in Hset for b in Hset
    }
    Hprime = closure(commutators, G.mul, G.identity)
    return min(G.mul(prod, h) for h in Hprime)


# The augmentation lattices by integer row reduction: the oracle for the
# H/H' membership criterion of augmentation_membership and diagram_check.


class _IntegerLattice:
    """Triangular integer basis supporting exact membership tests."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, list[int]] = {}

    def insert(self, vec) -> None:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            if j not in self.rows:
                if v[j] < 0:
                    v = [-x for x in v]
                self.rows[j] = v
                return
            r = self.rows[j]
            while v[j]:
                q = v[j] // r[j]
                if q:
                    v = [a - q * b for a, b in zip(v, r)]
                if v[j]:
                    self.rows[j], v = v, r
                    r = self.rows[j]
        # fully reduced to zero: dependent vector

    def contains(self, vec) -> bool:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            r = self.rows.get(j)
            if r is None or v[j] % r[j]:
                return False
            q = v[j] // r[j]
            v = [a - q * b for a, b in zip(v, r)]
        return all(x == 0 for x in v)


def _generators(G: FiniteGroup, Hset) -> tuple[int, ...]:
    """Generators of the subgroup Hset: greedily, the least element not yet
    in the subgroup the earlier ones generate."""
    gens, span = (), {G.identity}
    for x in sorted(Hset):
        if x not in span:
            gens += (x,)
            span = G.subgroup_closure(gens)
    return gens


def _lattice(G: FiniteGroup, Hset: frozenset[int], kind: str) -> _IntegerLattice:
    if kind not in LATTICE_KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}; use one of {LATTICE_KINDS}")
    gens = _generators(G, range(G.n) if kind == "IG2" else Hset)
    lat = _IntegerLattice(G.n)
    if kind == "IH+IGIH":
        for s in gens:
            lat.insert(GroupRingElement.delta(G, s).coeffs)
    for a in range(G.n):
        if a != G.identity:
            for s in gens:
                lat.insert((GroupRingElement.delta(G, a) * GroupRingElement.delta(G, s)).coeffs)
    return lat


def full_pair_lattice(G, Hset, kind):
    """The lattice from all products (a-1)(b-1), a != 1 in G and b != 1 in
    H (in G for I_G^2), plus every (h-1) for I_H + I_G*I_H."""
    lat = _IntegerLattice(G.n)
    nontrivial_G = [g for g in range(G.n) if g != G.identity]
    nontrivial_H = [h for h in sorted(Hset) if h != G.identity]
    if kind == "IH+IGIH":
        for h in nontrivial_H:
            lat.insert(GroupRingElement.delta(G, h).coeffs)
    for a in nontrivial_G:
        for b in nontrivial_G if kind == "IG2" else nontrivial_H:
            lat.insert((GroupRingElement.delta(G, a) * GroupRingElement.delta(G, b)).coeffs)
    return lat


def same_lattice(x, y):
    return all(y.contains(r) for r in x.rows.values()) and all(
        x.contains(r) for r in y.rows.values()
    )


def small_groups():
    """Every abelian group of order <= 36, relabelled, and S3, S4, S5."""
    groups = [relabelled(t, seed) for seed, t in enumerate(abelian_group_types(36))]
    groups += [symmetric(k, max_order=120) for k in (3, 4, 5)]
    return groups


def _check_associative(table) -> None:
    """All n^3 triples: the associativity check FiniteGroup ran before
    Light's test, kept as its oracle."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupTableError("table is not associative")


def _derived_of_subgroup(G: FiniteGroup, Hset) -> frozenset[int]:
    """H' from all |H|^2 commutators: the oracle of the generator version."""
    gens = {
        G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b]))
        for a in Hset
        for b in Hset
    }
    return closure(gens, G.mul, G.identity)


def unipotent_loop(n, seed):
    """A seeded loop on 0..n-1 with identity 0 and x*x = 0 for every x (so
    inverses are two-sided), filled cell by cell by backtracking; for n not
    a power of 2 it cannot be a group."""
    rng = random.Random(seed)
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = t[x][0] = x
        t[x][x] = 0
    cells = [(a, b) for a in range(1, n) for b in range(1, n) if a != b]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(t[a]) | {row[b] for row in t}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            t[a][b] = v
            if fill(i + 1):
                return True
        t[a][b] = None
        return False

    assert fill(0)
    return t


def loop_times_cyclic(L, m):
    """L x C_m with (l, c) at index l*m + c: the identity is 0, and 1 is
    (e, 1), which lies in the nucleus (it associates with everything)."""
    n = len(L)
    return [
        [L[a // m][b // m] * m + (a + b) % m for b in range(n * m)] for a in range(n * m)
    ]


def is_loop_with_inverses(table):
    n = len(table)
    everything = set(range(n))
    e = next(e for e in range(n) if table[e] == list(range(n)))
    return (
        all(table[x][e] == x for x in range(n))
        and all(set(row) == everything for row in table)
        and all({row[b] for row in table} == everything for b in range(n))
        and all(table[x].index(e) == [row[x] for row in table].index(e) for x in range(n))
    )


def non_group_loops():
    loops = [unipotent_loop(n, seed) for n in (5, 6, 7) for seed in range(3)]
    loops += [loop_times_cyclic(L, m) for L in loops[:4] for m in (2, 3)]
    return loops + [relabel_table(L, seed) for seed, L in enumerate(loops)]


def subgroups_by_full_closure(G):
    """Every subgroup by closing H | {g} from the trivial group."""
    found = {frozenset([G.identity])}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for g in range(G.n):
            if g not in H:
                K = closure(H | {g}, G.mul, G.identity)
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


class TestGroupValidation:
    def test_rejects_non_group_table(self):
        with pytest.raises(GroupTableError):
            FiniteGroup([[0, 1], [0, 1]])

    def test_rejects_non_associative(self):
        # a quasigroup table with identity but broken associativity
        with pytest.raises(GroupTableError):
            FiniteGroup(
                [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ]
            )

    def test_group_tables_pass_the_triple_loop(self):
        for G in small_groups():
            _check_associative(G.table)

    def test_loops_fail_as_in_the_triple_loop(self):
        for table in non_group_loops():
            assert is_loop_with_inverses(table)
            with pytest.raises(GroupTableError) as oracle:
                _check_associative(table)
            with pytest.raises(GroupTableError) as got:
                FiniteGroup(table)
            assert str(got.value) == str(oracle.value) == "table is not associative"

    def test_first_generator_alone_does_not_decide(self):
        # 1 is the least element besides the identity, so the first
        # generator; every triple through it associates, the table does not
        for m in (2, 3):
            table = loop_times_cyclic(unipotent_loop(5, 0), m)
            n = len(table)
            assert all(
                table[table[a][b]][c] == table[a][table[b][c]]
                for a, b, c in itertools.product(range(n), repeat=3)
                if 1 in (a, b, c)
            )
            with pytest.raises(GroupTableError, match="table is not associative"):
                FiniteGroup(table)

    def test_subgroup_elements_must_be_in_range(self):
        C4 = FiniteGroup.cyclic_product([4])
        for H in ([0, 9], [0, -1], [0, -2], [0, 2, 4]):
            with pytest.raises(NotSubgroupError, match="outside 0..3"):
                C4.check_subgroup(H)
            with pytest.raises(NotSubgroupError, match="outside 0..3"):
                restricted_transfer(C4, H)

    def test_order_cap(self):
        with pytest.raises(GroupTableError):
            FiniteGroup.cyclic_product([70])

    def test_table_text_round_trip(self):
        C4 = FiniteGroup.cyclic_product([4])
        text = "\n".join(" ".join(str(x) for x in row) for row in C4.table)
        G = FiniteGroup.from_table_text(text)
        assert G.table == C4.table


class TestTransfer:
    def test_klein_four_into_factor_vanishes(self):
        G = klein_four()
        H = sub_by_labels(G, {(0, 0), (1, 0)})
        g = G.element_labels.index((0, 1))
        assert transfer(G, H, g) == G.identity

    def test_c4_into_index_two_is_nontrivial(self):
        C4 = FiniteGroup.cyclic_product([4])
        assert transfer(C4, [0, 2], 1) == 2

    def test_s3_three_cycle_into_a3_vanishes(self):
        S3 = symmetric(3)
        A3 = sub_by_labels(S3, {(0, 1, 2), (1, 2, 0), (2, 0, 1)})
        for cyc in ((1, 2, 0), (2, 0, 1)):
            assert transfer(S3, A3, S3.element_labels.index(cyc)) == S3.identity

    def test_not_subgroup(self):
        C4 = FiniteGroup.cyclic_product([4])
        with pytest.raises(NotSubgroupError):
            transfer(C4, [0, 1], 1)

    def test_homomorphism_property(self):
        for G in (FiniteGroup.cyclic_product([8]), FiniteGroup.cyclic_product([2, 4]),
                  symmetric(3)):
            for H in G.all_subgroups():
                Hp = sorted(H)
                Hder = _derived_of_subgroup(G, frozenset(H))
                imgs = {g: transfer(G, Hp, g) for g in range(G.n)}
                for a in range(G.n):
                    for b in range(G.n):
                        prod = G.mul(imgs[a], imgs[b])
                        # compare as least elements of the H'-coset
                        assert min(G.mul(prod, h) for h in Hder) == imgs[G.mul(a, b)]

    def test_representative_invariance(self):
        rng = random.Random(5)
        G = FiniteGroup.cyclic_product([3, 6])
        H = sub_by_labels(G, {(0, 0), (0, 2), (0, 4)})
        Hset = frozenset(H)
        base = {g: transfer(G, H, g) for g in range(G.n)}
        default_reps = G.context(Hset).reps
        for _ in range(10):
            reps = [
                G.mul(r, rng.choice(sorted(Hset)))
                for r in default_reps
            ]
            for g in range(0, G.n, 3):
                assert coset_product_transfer(G, H, g, reps=reps) == base[g]

    def test_element_must_be_in_range(self):
        C4 = FiniteGroup.cyclic_product([4])
        for g in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                transfer(C4, [0, 2], g)

    def test_abelian_transfer_is_power_map(self):
        for orders in ([6], [2, 4], [3, 3], [12], [2, 2, 2], [24]):
            G = FiniteGroup.cyclic_product(orders)
            for H in G.all_subgroups():
                Hp = sorted(H)
                index = G.n // len(H)
                for g in range(G.n):
                    assert transfer(G, Hp, g) == G.power(g, index)


class TestTransferOracle:
    def test_every_instance_matches_coset_product(self):
        for G in oracle_groups():
            for H in G.all_subgroups():
                for g in range(G.n):
                    assert transfer(G, H, g) == coset_product_transfer(G, H, g)

    def test_alternating_subgroups_replace_the_one_slot(self):
        for G in oracle_groups():
            subgroups = G.all_subgroups()
            for H1, H2 in zip(subgroups, subgroups[1:]):
                for H in (H1, H2, H1):
                    ctx = G.context(sorted(H))
                    assert ctx.Hset == H and G.context(H) is ctx
                    for g in range(G.n):
                        assert transfer(G, sorted(H), g) == coset_product_transfer(G, H, g)
                assert G.context(H2) is not ctx and G.context(H2).Hset == H2

    def test_supplied_transversals(self):
        rng = random.Random(7)
        for G in oracle_groups():
            for H in G.all_subgroups():
                cosets = {frozenset(G.mul(x, h) for h in H) for x in range(G.n)}
                for _ in range(3):
                    reps = [rng.choice(sorted(c)) for c in sorted(cosets, key=min)]
                    rng.shuffle(reps)
                    for g in range(G.n):
                        got = coset_product_transfer(G, H, g, reps=reps)
                        assert got == transfer(G, H, g)


class TestCyclePowers:
    def test_match_binary_powering(self):
        for G in oracle_groups():
            for a in range(G.n):
                for k in range(-2 * G.n, 2 * G.n + 1):
                    x = a if k >= 0 else G.inverse[a]
                    assert G.power(a, k) == power(x, abs(k), G.mul, G.identity)


class TestSubgroupEnumeration:
    def test_matches_closure_of_each_extension(self):
        groups = [symmetric(3), symmetric(4)]
        for seed, t in enumerate(abelian_group_types(36)):
            groups += [FiniteGroup.cyclic_product(t), relabelled(t, seed)]
        for G in groups:
            assert G.all_subgroups() == subgroups_by_full_closure(G)

    def test_relabelled_symmetric_groups_match_full_closure(self):
        for seed in (1, 2, 3):
            G = relabel(symmetric(4), seed)
            assert G.all_subgroups() == subgroups_by_full_closure(G)
        S5 = relabel(symmetric(5, max_order=120), 7)
        subgroups = S5.all_subgroups()
        assert len(subgroups) == 156
        assert subgroups == subgroups_by_full_closure(S5)

    def test_c2_6_has_every_subspace_of_f2_6(self):
        # subspaces of F_2^6 by dimension: the Gaussian binomials [6, k]_2
        subgroups = FiniteGroup.cyclic_product([2] * 6).all_subgroups()
        assert len(subgroups) == 2825
        sizes = [sum(len(K) == 2**k for K in subgroups) for k in range(7)]
        assert sizes == [1, 63, 651, 1395, 651, 63, 1]

    @staticmethod
    def closed_subgroups(G, monkeypatch):
        """all_subgroups, with every (seed, result) that its subgroup_closure
        calls return other than None."""
        calls, close = [], G.subgroup_closure

        def recording(seed, base=None, floor=None):
            K = close(seed, base, floor)
            if K is not None:
                calls.append((seed, K))
            return K

        monkeypatch.setattr(G, "subgroup_closure", recording)
        return G.all_subgroups(), calls

    def test_each_subgroup_is_closed_once(self, monkeypatch):
        for factors in abelian_group_types(36):
            G = FiniteGroup.cyclic_product(factors, max_order=36)
            subgroups, calls = self.closed_subgroups(G, monkeypatch)
            assert len(calls) == len(subgroups) - 1 == len(set(subgroups)) - 1
            assert {K for _, K in calls} == set(subgroups) - {frozenset([G.identity])}

    def test_whole_group_comes_from_the_light_test_generators(self, monkeypatch):
        # all_subgroups and _generating_set take generators by one greedy rule
        groups = oracle_groups() + [FiniteGroup.cyclic_product(t) for t in abelian_group_types(36)]
        for G in groups:
            _, calls = self.closed_subgroups(G, monkeypatch)
            whole = [seed for seed, K in calls if len(K) == G.n]
            assert whole == ([G._gens] if G.n > 1 else [])


class TestDerivedSubgroup:
    def test_generator_commutators_match_all_pairs(self):
        for G in small_groups() + [relabel(symmetric(4), 3)]:
            assert G.derived_subgroup() == _derived_of_subgroup(G, range(G.n))


class TestRestrictedTransfer:
    def test_klein_four_vanishes(self):
        G = klein_four()
        H = sub_by_labels(G, {(0, 0), (1, 0)})
        res = restricted_transfer(G, H)
        assert res.well_defined_on_quotient and res.hypothesis_holds and res.vanishes
        assert not res.vanishing_discrepancy

    def test_c4_is_the_documented_discrepancy(self):
        res = restricted_transfer(FiniteGroup.cyclic_product([4]), [0, 2])
        assert res.well_defined_on_quotient and res.hypothesis_holds
        assert not res.vanishes
        assert res.vanishing_discrepancy

    def test_c2xc4_vanishes(self):
        G = FiniteGroup.cyclic_product([2, 4])
        H = sub_by_labels(G, {(0, 0), (0, 2)})
        res = restricted_transfer(G, H)
        assert res.hypothesis_holds and res.vanishes

    def test_requires_normal(self):
        S3 = symmetric(3)
        H = sub_by_labels(S3, {(0, 1, 2), (1, 0, 2)})
        with pytest.raises(NotNormalError):
            restricted_transfer(S3, H)

    def test_requires_commutator_contained(self):
        S4 = symmetric(4)
        vier = sub_by_labels(
            S4, {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
        )
        with pytest.raises(CommutatorNotContainedError):
            restricted_transfer(S4, vier)

    def test_normality_is_not_rechecked(self):
        """restricted_transfer and diagram_check on one (G, H) read the
        normality verdict of the shared context; the error messages are
        unchanged."""
        S3 = symmetric(3)
        H = sub_by_labels(S3, {(0, 1, 2), (1, 0, 2)})
        for check in (restricted_transfer, diagram_check):
            with pytest.raises(NotNormalError, match="^H must be normal$"):
                check(S3, H)
        S4 = symmetric(4)
        vier = sub_by_labels(S4, {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)})
        with pytest.raises(
            CommutatorNotContainedError, match="^derived subgroup must lie in H$"
        ):
            diagram_check(S4, vier)

    def test_context_verdict_matches_full_check(self):
        """Conjugating H by the coset representatives alone decides
        normality: the verdict agrees with ``is_normal`` on every subgroup,
        normal or not."""
        verdicts = [
            (G.context(H).normal, is_normal(G, H))
            for G in oracle_groups()
            for H in G.all_subgroups()
        ]
        assert all(ours == full for ours, full in verdicts)
        assert {full for _, full in verdicts} == {True, False}


class TestAugmentationLattices:
    def test_hand_checked_non_membership(self):
        C4 = FiniteGroup.cyclic_product([4])
        x = GroupRingElement.delta(C4, 2)  # sigma^2 - 1
        assert not augmentation_membership(C4, [0, 2], x, "IGIH")

    def test_generator_is_member(self):
        C4 = FiniteGroup.cyclic_product([4])
        gen = GroupRingElement.delta(C4, 1) * GroupRingElement.delta(C4, 2)
        assert augmentation_membership(C4, [0, 2], gen, "IGIH")

    def test_zero_is_member_of_everything(self):
        C4 = FiniteGroup.cyclic_product([4])
        zero = GroupRingElement(C4, [0, 0, 0, 0])
        for kind in ("IG2", "IGIH", "IH+IGIH"):
            assert augmentation_membership(C4, [0, 2], zero, kind)

    def test_ih_plus_igih_contains_delta_h(self):
        C4 = FiniteGroup.cyclic_product([4])
        x = GroupRingElement.delta(C4, 2)
        assert augmentation_membership(C4, [0, 2], x, "IH+IGIH")

    def test_coboundary_sum_identity_mod_ig2(self):
        # delta(xy) = delta(x) + delta(y) modulo I_G^2
        for orders in ([4], [2, 4], [3, 3], [6]):
            G = FiniteGroup.cyclic_product(orders)
            full = list(range(G.n))
            for x in range(G.n):
                for y in range(G.n):
                    lhs = GroupRingElement.delta(G, G.mul(x, y))
                    rhs = GroupRingElement.delta(G, x) + GroupRingElement.delta(G, y)
                    assert augmentation_membership(G, full, lhs - rhs, "IG2")

    def test_ig2_keeps_the_context_of_h(self):
        # I_G^2 is decided in G/G', so H's context stays in the one slot
        G = FiniteGroup.cyclic_product([6, 6])
        H = next(K for K in G.all_subgroups() if len(K) == 6)
        ctx = G.context(H)
        x = GroupRingElement.delta(G, 1) * GroupRingElement.delta(G, max(H))
        for kind in ("IG2", "IGIH", "IG2", "IH+IGIH"):
            assert augmentation_membership(G, H, x, kind)
            assert G.context(H) is ctx

    def test_element_of_another_group_is_rejected(self):
        C4, C2xC2 = FiniteGroup.cyclic_product([4]), klein_four()
        x = GroupRingElement.delta(C2xC2, 1)
        with pytest.raises(ValueError, match="group ring"):
            augmentation_membership(C4, [0, 2], x, "IGIH")

    def test_generator_lattices_equal_full_pair_lattices(self):
        groups = [symmetric(3), symmetric(4)]
        groups += [FiniteGroup.cyclic_product(t) for t in abelian_group_types(16)]
        checked = 0
        for G in groups:
            full_ig2 = full_pair_lattice(G, frozenset(range(G.n)), "IG2")
            for H in G.all_subgroups():
                for kind in LATTICE_KINDS:
                    full = full_ig2 if kind == "IG2" else full_pair_lattice(G, H, kind)
                    assert same_lattice(_lattice(G, H, kind), full), (G.name, sorted(H), kind)
                    checked += 1
        assert checked == 3 * (214 + 6 + 30)

    def test_membership_criterion_matches_lattice_oracle(self):
        # seeded combinations of the rows of each lattice, each also with
        # one coordinate moved by +-1 and with +-1 moved between two
        # coordinates, checked against every kind
        rng = random.Random(11)
        groups = oracle_groups() + [FiniteGroup.cyclic_product(t) for t in abelian_group_types(16)]
        outcomes = {kind: {True: 0, False: 0} for kind in LATTICE_KINDS}
        for G in groups:
            ig2 = _lattice(G, frozenset(range(G.n)), "IG2")
            for H in G.all_subgroups():
                lattices = {kind: ig2 if kind == "IG2" else _lattice(G, H, kind)
                            for kind in LATTICE_KINDS}
                vectors = []
                for lat in lattices.values():
                    for _ in range(2):
                        v = [0] * G.n
                        for row in lat.rows.values():
                            c = rng.randint(-2, 2)
                            v = [a + c * b for a, b in zip(v, row)]
                        a, b = rng.sample(range(G.n), 2)
                        sign = rng.choice((1, -1))
                        one = list(v)
                        one[a] += sign
                        two = list(one)
                        two[b] -= sign
                        vectors += [v, one, two]
                for kind, lat in lattices.items():
                    for v in vectors:
                        expected = lat.contains(v)
                        got = augmentation_membership(G, H, GroupRingElement(G, v), kind)
                        assert got == expected, (G.name, sorted(H), kind, v)
                        outcomes[kind][expected] += 1
        for kind in LATTICE_KINDS:
            assert sum(outcomes[kind].values()) == 18 * (66 + 214)
            assert outcomes[kind][True] and outcomes[kind][False], (kind, outcomes[kind])

    def test_unknown_kind_is_rejected(self):
        C4 = FiniteGroup.cyclic_product([4])
        x = GroupRingElement.delta(C4, 2)
        with pytest.raises(ValueError, match="unknown lattice kind"):
            augmentation_membership(C4, [0, 2], x, "IG3")

    def test_augmentation_zero_for_deltas(self):
        C4 = FiniteGroup.cyclic_product([4])
        assert GroupRingElement.delta(C4, 3).augmentation() == 0


class TestDiagram:
    def test_s3_a3_commutes(self):
        S3 = symmetric(3)
        A3 = sub_by_labels(S3, {(0, 1, 2), (1, 2, 0), (2, 0, 1)})
        assert diagram_check(S3, A3).commutes

    def test_c4_commutes_despite_nonvanishing(self):
        assert diagram_check(FiniteGroup.cyclic_product([4]), [0, 2]).commutes

    def test_subgroup_equal_group_is_vacuous(self):
        C4 = FiniteGroup.cyclic_product([4])
        assert diagram_check(C4, [0, 1, 2, 3]).commutes

    def test_broken_transfer_is_reported(self, monkeypatch):
        # quadnorm re-exports the function transfer, which shadows the
        # submodule as an attribute of the package, so fetch the module
        module = importlib.import_module("quadnorm.transfer")
        monkeypatch.setattr(module, "transfer", lambda G, H, g, reps=None: G.identity)
        for orders, H in (([4], [0, 2]), ([6], [0, 2, 4])):
            report = diagram_check(FiniteGroup.cyclic_product(orders), H)
            assert not report.commutes and report.violations == (1,)


def _module():
    # quadnorm re-exports the function transfer, which shadows the submodule
    # as an attribute of the package, so fetch the module
    return importlib.import_module("quadnorm.transfer")


def _quotient_subgroups(G):
    """The subgroups that diagram_check accepts: normal, containing G'."""
    return [
        H for H in G.all_subgroups()
        if G.context(H).normal and G.derived_subgroup() <= H
    ]


def diagram_vector(G, reps, g, t):
    """(g - 1)*sum(reps) - (t - 1), coefficient by coefficient."""
    v = [0] * G.n
    for r in reps:
        v[G.mul(g, r)] += 1
        v[r] -= 1
    v[t] -= 1
    v[G.identity] += 1
    return v


class TestImagesFromGenerators:
    def test_coset_products_once_per_generator(self, monkeypatch):
        module = _module()
        coset_product = module._coset_product
        calls = []

        def counted(G, ctx, g):
            calls.append(g)
            return coset_product(G, ctx, g)

        monkeypatch.setattr(module, "_coset_product", counted)
        for G in oracle_groups() + [relabelled([6, 6], 14)]:
            quotients = _quotient_subgroups(G)
            for H in G.all_subgroups():
                calls.clear()
                for _ in range(2):
                    assert [transfer(G, H, g) for g in range(G.n)] == [
                        coset_product_transfer(G, H, g) for g in range(G.n)
                    ]
                if H in quotients:
                    restricted_transfer(G, H)
                    diagram_check(G, H)
                assert len(calls) <= len(G._gens) and set(calls) <= set(G._gens)

    @pytest.mark.parametrize("G, which, wrong", [
        # S3 onto S3/A3 is the sign: the first transposition sent to the
        # identity breaks (t1*t2)^3 = 1
        (symmetric(3), 0, 0),
        # C2 x C3 onto itself: the generator of order 2, (1, 0), sent to
        # (0, 1) of order 3
        (FiniteGroup.cyclic_product([2, 3]), 1, 1),
    ])
    def test_a_corrupted_generator_image_fails_the_walk(self, monkeypatch, G, which, wrong):
        module = _module()
        coset_product = module._coset_product
        H = range(G.n)
        want = [coset_product_transfer(G, H, g) for g in range(G.n)]
        patched = G._gens[which]
        assert want[patched] != wrong

        def corrupted(G, ctx, g):
            return wrong if g == patched else coset_product(G, ctx, g)

        monkeypatch.setattr(module, "_coset_product", corrupted)
        with pytest.raises(ArithmeticError, match="^transfer is not a homomorphism on the walk$"):
            transfer(G, H, G.identity)
        monkeypatch.undo()
        # the failed walk left no images behind
        assert [transfer(G, H, g) for g in range(G.n)] == want


class TestDiagramProducts:
    def test_transfer_outside_h_is_a_violation(self, monkeypatch):
        module = _module()
        for orders, H in (([4], [0, 2]), ([6], [0, 2, 4]), ([2, 4], [0, 2])):
            G = FiniteGroup.cyclic_product(orders)
            outside = min(set(range(G.n)) - set(H))
            monkeypatch.setattr(module, "transfer", lambda G, H, g: outside)
            report = diagram_check(G, H)
            assert not report.commutes and report.violations == G.context(H).reps

    def test_violations_match_the_lattice_oracle(self, monkeypatch):
        # the true transfer, and one multiplied by a seeded element: in H',
        # in H but not in H', or outside H
        module = _module()
        rng = random.Random(17)
        outcomes = {True: 0, False: 0}
        for G in oracle_groups():
            for H in _quotient_subgroups(G):
                lattice = _lattice(G, H, "IGIH")
                reps = G.context(H).reps
                true = {g: transfer(G, H, g) for g in reps}
                perturbed = {g: G.mul(t, rng.randrange(G.n)) for g, t in true.items()}
                for images in (true, perturbed):
                    monkeypatch.setattr(module, "transfer", lambda G, H, g: images[g])
                    want = tuple(
                        g for g in reps
                        if not lattice.contains(diagram_vector(G, reps, g, images[g]))
                    )
                    assert diagram_check(G, H).violations == want, (G.name, sorted(H))
                    for g in reps:
                        outcomes[g in want] += 1
                monkeypatch.undo()
                assert not diagram_check(G, H).violations
        assert outcomes[True] and outcomes[False], outcomes
