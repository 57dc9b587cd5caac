import hashlib
import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnorm import formclass
from quadnorm.formclass import (
    BinaryQuadraticForm,
    DiscriminantCongruenceError,
    DiscriminantMismatchError,
    FormClass,
    ImprimitiveError,
    InertPrimeError,
    SquareDiscriminantError,
    all_reduced_forms,
    class_data,
    class_group,
    minkowski_class_number,
    polya_report,
    prime_form,
    prime_form_raw,
    reduction_cycle,
)
from quadnorm.formclass import (
    _abelian_basis,
    _class_key,
    _ClassTable,
    _compose_forms,
    _group_structure,
    _rho_cycle,
    _structure,
)
from quadnorm.compose import OrderViolationError, RelativeExtension, composition_check
from quadnorm.cyclicext import period_polynomial
from quadnorm.harness import abelian_group_types
from quadnorm.intmath import (
    factorize,
    floor_quadsurd,
    is_square,
    is_squarefree,
    kronecker,
    power,
    primes_up_to,
    sqrt_mod_prime,
)
from quadnorm.quadfield import fundamental_unit, make_field
from quadnorm.transfer import FiniteGroup


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


# The split-prime sieve that enumerated every reduced triple before the class
# table generated its classes from the prime forms, kept as the reduced-form
# oracle.


def _progression_starts(D: int, p: int) -> set[int]:
    """The i in [0, p) with p | (D - b^2)/4 at b = b0 + 2i, b0 = 2 - D % 2.

    (D - b^2)/4 mod p has period p in i, so these start the progressions
    of step p on which p divides it.  An odd p divides it exactly when
    b = +-sqrt(D) (mod p): two starts when (D/p) = 1, one when p | D and
    none when (D/p) = -1, which the root's own check finds.
    """
    b0 = 2 - D % 2
    if p == 2:
        return {i for i in (0, 1) if (D - (b0 + 2 * i) ** 2) // 4 % 2 == 0}
    try:
        r = sqrt_mod_prime(D, p)
    except ValueError:  # (D/p) = -1
        return set()
    half = (p + 1) // 2  # the inverse of 2 mod p
    return {(r - b0) * half % p, (-r - b0) * half % p}


def _reduced_triples(D: int) -> list[tuple[int, int, int]]:
    """Every reduced primitive triple of discriminant D, by a sieve over b.

    For b = b0 + 2i <= s = isqrt(D) and a*c = m = (D - b^2)/4, the triples
    (a, b, -c) and (-a, b, c) are reduced exactly when (s - b)/2 < a <=
    (s + b)/2, and a lies in that window exactly when c does.  So only the
    divisors a <= isqrt(m) are needed, each giving also (c, b, -a) and
    (-c, b, a) when c != a, and their primes are at most isqrt(D // 4).
    Each such prime is stripped from m along the progressions of
    ``_progression_starts``, and the divisors of m grow by its powers up to
    isqrt(m).
    """
    if D <= 0 or is_square(D):
        raise SquareDiscriminantError(f"{D} is not a valid indefinite discriminant")
    if D % 4 > 1:
        raise DiscriminantCongruenceError(f"{D} is not 0 or 1 modulo 4")
    s = isqrt(D)
    b0 = 2 - D % 2
    ms = [(D - b * b) // 4 for b in range(b0, s + 1, 2)]
    caps = [isqrt(m) for m in ms]
    divs = [[1] for _ in ms]
    for p in primes_up_to(isqrt(D // 4)):
        for i0 in _progression_starts(D, p):
            for i in range(i0, len(ms), p):
                m, cap, ds = ms[i] // p, caps[i], divs[i]
                grown = [d * p for d in ds if d * p <= cap]
                while m % p == 0 and grown:
                    ds += grown
                    m //= p
                    grown = [d * p for d in grown if d * p <= cap]
                ds += grown
    out = []
    for i, (m, ds) in enumerate(zip(ms, divs)):
        b = b0 + 2 * i
        lo = (s - b) // 2 + 1
        for a in ds:
            c = m // a
            if a >= lo and gcd(a, b, c) == 1:
                out += ((a, b, -c), (-a, b, c))
                if c != a:
                    out += ((c, b, -a), (-c, b, a))
    return out


def sieve_reduced_forms(D: int) -> list[BinaryQuadraticForm]:
    return [BinaryQuadraticForm(*f) for f in _reduced_triples(D)]


# Reducedness and the rho step on single forms, for the tests that read
# them; ``formclass`` runs both on triples (``_reduce`` and ``_rho``).


def is_reduced(f: BinaryQuadraticForm) -> bool:
    """|sqrt(disc) - 2|a|| < b < sqrt(disc), by integer comparisons."""
    D = f.disc
    b = f.b
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(f.a) - b
    if t >= 0 and t * t >= D:
        return False
    s = 2 * abs(f.a) + b
    return s * s > D


def rho(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """One reduction step (right neighbour)."""
    D = f.disc
    return BinaryQuadraticForm(*formclass._rho(f.b, f.c, D, isqrt(D)))


# The form-level group law, the class table's oracle: every product walks
# the whole rho cycle of a form, and the wide group is taken modulo the sign
# class by comparing FormClass keys.


def principal_form(D: int) -> BinaryQuadraticForm:
    s = D % 2
    return BinaryQuadraticForm(1, s, (s * s - D) // 4)


def principal_class(D: int) -> FormClass:
    return reduction_cycle(principal_form(D))


def _sign_form(D: int) -> BinaryQuadraticForm:
    s = D % 2
    return BinaryQuadraticForm(-1, s, (D - s * s) // 4)


def sign_class(D: int) -> FormClass:
    """Class of a form representing -1; principal exactly when h+ = h."""
    return reduction_cycle(_sign_form(D))


def wide_rep(cls: FormClass, J: FormClass) -> FormClass:
    """Representative of cls in the wide group, the quotient of the narrow
    group by the sign class J: the lesser of cls and cls*J."""
    return min(cls, cls * J, key=_class_key)


def inverse_form(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    return BinaryQuadraticForm(f.a, -f.b, f.c)


def inverse(cls: FormClass) -> FormClass:
    return reduction_cycle(inverse_form(cls.canonical))


# deterministic sample of fundamental discriminants used by the heavier
# group-law checks; the large ones (discriminants up to 4*10^4) keep the
# composition code honest
SAMPLE_D = [2, 3, 5, 7, 10, 13, 15, 26, 34, 79, 82, 105, 142, 226, 229, 399,
            442, 577, 1009, 1093, 1489, 2993, 4002, 5101, 7053, 9949,
            24005, 33337, 36021, 39997]


class TestReduction:
    def test_already_reduced_is_canonical(self):
        f = BinaryQuadraticForm(1, 16, -15)
        assert is_reduced(f)
        cls = reduction_cycle(f)
        assert cls.canonical == f
        assert cls.cycle_length == 4

    def test_rho_preserves_class(self):
        for f in (BinaryQuadraticForm(3, 2, -26), BinaryQuadraticForm(1, 6, -1)):
            assert reduction_cycle(f) == reduction_cycle(rho(f))

    def test_imprimitive_rejected(self):
        with pytest.raises(ImprimitiveError):
            reduction_cycle(BinaryQuadraticForm(2, 32, -30))

    def test_square_discriminant_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            reduction_cycle(BinaryQuadraticForm(1, 3, 0))  # disc 9

    def test_negative_discriminant_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            reduction_cycle(BinaryQuadraticForm(1, 0, 1))

    def test_equivalence_decision(self):
        # all reduced forms in one rho-cycle share the canonical form
        for D in (316, 40, 145):
            for f in all_reduced_forms(D):
                assert reduction_cycle(f) == reduction_cycle(rho(f))


class TestComposition:
    def test_identity_law(self):
        for D in (316, 40, 145, 1756):
            e = principal_class(D)
            for f in all_reduced_forms(D):
                c = reduction_cycle(f)
                assert e * c == c

    def test_inverse_law(self):
        for D in (316, 40, 145, 1756):
            e = principal_class(D)
            for f in all_reduced_forms(D):
                c = reduction_cycle(f)
                assert c * inverse(c) == e

    def test_cube_of_class_above_3_for_79(self):
        cls = reduction_cycle(BinaryQuadraticForm(3, 2, -26))
        cube = cls * cls * cls
        # trivial in the ideal class group: principal up to the sign class
        assert cube in (principal_class(316), sign_class(316))
        wide = class_group(make_field(79), "wide")
        assert wide.rep(cube) == wide.identity()

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatchError):
            principal_class(316) * principal_class(40)

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_group_laws_exhaustive(self, d):
        F = make_field(d)
        group = class_group(F, "narrow")
        elems = group.elements
        e = principal_class(F.disc)
        table = {}
        for a in elems:
            for b in elems:
                ab = a * b
                table[(a, b)] = ab
                assert ab in elems
        for a in elems:
            for b in elems:
                assert table[(a, b)] == table[(b, a)]
                for c in elems:
                    assert table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
            assert table[(a, inverse(a))] == e


# fields with non-cyclic groups, a sign class off the identity, or larger h
TABLE_D = [79, 130, 210, 226, 399, 442, 2379, 3458, 4002, 9994]


class TestClassTable:
    """The integer class table against the FormClass law, which walks the
    whole rho cycle of every product."""

    @pytest.mark.parametrize("d", TABLE_D)
    def test_lookups_and_products_match_reduction_cycle(self, d):
        D = make_field(d).disc
        table = _ClassTable(D)
        for f in sieve_reduced_forms(D):
            assert table.classes[table.class_of(f.as_tuple())] == reduction_cycle(f)
        for i, x in enumerate(table.classes):
            for j, y in enumerate(table.classes):
                assert table.classes[table.mul(i, j)] == x * y

    @pytest.mark.parametrize("d", TABLE_D)
    @pytest.mark.parametrize("flavor", ["narrow", "wide"])
    def test_structure_matches_form_class_law(self, d, flavor):
        F = make_field(d)
        narrow = sorted(
            {reduction_cycle(f) for f in sieve_reduced_forms(F.disc)}, key=_class_key
        )
        one = principal_class(F.disc)
        if flavor == "narrow":
            J, elements = None, narrow
            divs, gens = _structure(elements, lambda x, y: x * y, one)
        else:
            J = sign_class(F.disc)
            elements = sorted({wide_rep(c, J) for c in narrow}, key=_class_key)
            divs, gens = _structure(
                elements, lambda x, y: wide_rep(x * y, J), wide_rep(one, J)
            )
        got = class_group(F, flavor)
        assert (got.flavor, got.h, got.elementary_divisors) == (flavor, len(elements), divs)
        assert (got.generators, got.elements, got._sign_class) == (gens, tuple(elements), J)

    def test_class_data_to_3000_is_pinned(self):
        # pins the class numbers, the elementary divisors and the choice of
        # generators and elements of every squarefree d <= 3000
        groups = [class_data(make_field(d)) for d in range(2, 3001) if is_squarefree(d)]
        assert hashlib.sha256(repr(groups).encode()).hexdigest() == (
            "81c607668e211234dc5e34ecf15ffc25370dc3c064cea4a08fa1282b0785347b"
        )

    def test_narrow_structures_to_3000_are_pinned(self):
        # the narrow flavour, whose generators and element order class_data
        # never builds
        groups = [
            class_group(make_field(d), "narrow") for d in range(2, 3001) if is_squarefree(d)
        ]
        assert hashlib.sha256(repr(groups).encode()).hexdigest() == (
            "397dd89f129d4f4923e9ad97938fa685996c800c91bbb41f0c773edfedd8aa1a"
        )

    def test_step_cap_names_the_input_triple(self, monkeypatch):
        table = _ClassTable(316)
        monkeypatch.setattr(formclass, "_MAX_REDUCE_STEPS", 1)
        with pytest.raises(ArithmeticError) as info:
            table.class_of((3, 2, -26))  # not reduced, so one step is too few
        assert str(info.value) == "reduction did not terminate for (3, 2, -26)"

    @pytest.mark.parametrize(
        "d", [100000039, 100000041, 100000042, 100000049, 100000057, 100000073]
    )
    def test_cycles_partition_the_reduced_triples_near_1e8(self, d):
        # cycles longer than 10 000 forms, which a fixed step cap refused
        D = make_field(d).disc
        triples = _reduced_triples(D)
        table = _ClassTable(D)
        assert sum(c.cycle_length for c in table.classes) == len(triples)
        assert set(table.index) == set(triples)
        assert max(c.cycle_length for c in table.classes) > 10_000
        assert class_data(make_field(d)) is not None

    def test_generated_classes_match_the_sieve_to_10000(self):
        # every discriminant, fundamental or not: for a conductor > 1 no
        # proof says that the prime forms below isqrt(D // 4) generate
        for D in range(5, 10_001):
            if D % 4 > 1 or is_square(D):
                continue
            forms, cycles = set(_reduced_triples(D)), []
            while forms:
                cycle = _rho_cycle(forms.pop(), D)
                forms.difference_update(cycle)
                cycles.append((min(cycle, key=lambda f: (abs(f[0]), *f)), cycle))
            table = _ClassTable(D)
            named = [(c.canonical.as_tuple(), c.cycle_length) for c in table.classes]
            assert sorted(named) == sorted((least, len(cycle)) for least, cycle in cycles), D
            # each triple's generation number names its sieve cycle
            assert {f: named[i] for f, i in table.index.items()} == {
                f: (least, len(cycle)) for least, cycle in cycles for f in cycle
            }, D
            assert table.classes[table.identity] == principal_class(D), D
            assert table.classes[table.sign] == sign_class(D), D

    def test_negation_is_the_product_with_the_sign_class_to_10000(self):
        # wide_rep reads i*sign as i ^ sign
        for d in SQUAREFREE_TO_10_000:
            table = _ClassTable(make_field(d).disc)
            sign = table.classes[table.sign].canonical.as_tuple()
            for i, cls in enumerate(table.classes):
                a, b, c = f = cls.canonical.as_tuple()
                assert i ^ table.sign == table.class_of((-a, b, -c)), (d, i)
                assert i ^ table.sign == table.class_of(_compose_forms(f, sign)), (d, i)

    @pytest.mark.parametrize("d", [100000001, 100000002, 100000010])
    def test_building_composes_at_most_h_plus_times(self, d, monkeypatch):
        calls = 0
        compose = formclass._compose_forms

        def counted(f, g):
            nonlocal calls
            calls += 1
            return compose(f, g)

        monkeypatch.setattr(formclass, "_compose_forms", counted)
        table = _ClassTable(make_field(d).disc)
        h_plus = len(table.classes)
        assert calls <= h_plus, (calls, h_plus)
        calls = 0
        reps = {table.wide_rep(i) for i in range(h_plus)}
        assert calls == 0 and len(reps) in (h_plus, h_plus // 2)
        _group_structure(table, "wide").generators
        assert calls == len(table._products) > 0  # each a product the law memoised

    def test_prime_triples_only_for_primes_outside_the_subgroup_to_10000(
        self, monkeypatch
    ):
        # a prime that is inert, or that some triple of the subgroup has as
        # |a|, builds no prime triple: 6 156 triples, not one per prime
        calls = 0
        prime_triple = formclass._prime_triple

        def counted(D, ell):
            nonlocal calls
            calls += 1
            return prime_triple(D, ell)

        monkeypatch.setattr(formclass, "_prime_triple", counted)
        for d in SQUAREFREE_TO_10_000:
            _ClassTable(make_field(d).disc)
        assert calls <= 6156, calls

    def test_each_symbol_once_per_prime_to_10000(self, monkeypatch):
        # the loop reads (D/ell) and skips an inert ell; the prime triple then
        # reads a residue off its root and evaluates the symbol no more
        calls = []

        def counted(a, m):
            calls.append((a, m))
            return kronecker(a, m)

        monkeypatch.setattr(formclass, "kronecker", counted)
        for d in SQUAREFREE_TO_10_000:
            _ClassTable(make_field(d).disc)
        assert len(calls) == len(set(calls)) > 0

    def test_keys_sort_as_the_reprs(self):
        # _abelian_basis picks generators in repr(FormClass) order
        for d in SQUAREFREE_TO_10_000 + [100000001, 100000002]:
            table = _ClassTable(make_field(d).disc)
            classes = range(len(table.classes))
            by_repr = sorted(classes, key=lambda i: repr(table.classes[i]))
            assert sorted(classes, key=table.keys.__getitem__) == by_repr, d

    def test_class_of_another_discriminant_rejected(self, field79, field10):
        group = class_group(field79, "wide")
        other = prime_form(field10, 3)
        for call in (
            lambda: group.rep(other),
            lambda: group.mul(other, other),
            lambda: group.order_of(other),
        ):
            with pytest.raises(DiscriminantMismatchError):
                call()


# The structure as built before the basis was read as an invariant-factor
# chain, kept as an oracle: it splits every basis element into its primary
# parts and merges them, slot by slot, into the elementary divisors.


def primary_merge_structure(elements, mul, identity, key=repr) -> tuple[tuple[int, ...], tuple]:
    basis = _abelian_basis(elements, mul, identity, key)
    # merge into an elementary-divisor chain d1 | d2 | ... (ascending)
    primary: dict[int, list] = {}
    for gen, order in basis:
        for p, e in factorize(order).items():
            q = p**e
            comp = power(gen, order // q, mul, identity)
            primary.setdefault(p, []).append((q, comp))
    for p in primary:
        primary[p].sort(key=lambda t: -t[0])
    width = max((len(v) for v in primary.values()), default=0)
    divisors_desc = []
    gens_desc = []
    for slot in range(width):
        dd = 1
        g = identity
        for p, lst in primary.items():
            if slot < len(lst):
                dd *= lst[slot][0]
                g = mul(g, lst[slot][1])
        divisors_desc.append(dd)
        gens_desc.append(g)
    return tuple(reversed(divisors_desc)), tuple(reversed(gens_desc))


def relabelled_abelian_group(factors, seed):
    """(elements, mul, identity) of the product of cyclic groups of the
    given orders, its elements renamed by a seeded permutation."""
    G = FiniteGroup.cyclic_product(factors)
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    table = [[0] * G.n for _ in range(G.n)]
    for x in range(G.n):
        for y in range(G.n):
            table[perm[x]][perm[y]] = perm[G.table[x][y]]
    return list(range(G.n)), lambda x, y: table[x][y], perm[G.identity]


def assert_basis_is_a_chain(elements, mul, identity, key=repr):
    orders = [m for _, m in _abelian_basis(elements, mul, identity, key)]
    assert all(a % b == 0 for a, b in zip(orders, orders[1:])), orders


class TestInvariantFactorChain:
    """``_structure`` against the primary-decomposition merge it replaced."""

    def test_class_groups_to_3000(self):
        for d in range(2, 3001):
            if not is_squarefree(d):
                continue
            table = _ClassTable(make_field(d).disc)
            for flavor in ("narrow", "wide"):
                rep, mul = table.law(flavor)
                elements = sorted({rep(i) for i in range(len(table.classes))})
                args = (elements, mul, rep(table.identity), table.keys.__getitem__)
                assert _structure(*args) == primary_merge_structure(*args), (d, flavor)
                assert_basis_is_a_chain(*args)

    def test_relabelled_abelian_groups_to_64(self):
        for seed, factors in enumerate(abelian_group_types(64)):
            args = relabelled_abelian_group(factors, seed)
            assert _structure(*args) == primary_merge_structure(*args), factors
            assert_basis_is_a_chain(*args)


# The basis as built before one ``cycle`` per cyclic subgroup, kept as an
# oracle: it finds every order by its own walk and every coset's least
# element as the minimum over the whole coset, Σ ord(x) + h·m products.


def element_order(x, mul, one, bound: int | None = None) -> int:
    """Least k >= 1 with x**k == one, by repeated multiplication.

    Raises ArithmeticError when the order would exceed ``bound``.
    """
    k, acc = 1, x
    while acc != one:
        if bound is not None and k >= bound:
            raise ArithmeticError(f"element order exceeds {bound}")
        acc = mul(acc, x)
        k += 1
    return k


def coset_minima_basis(elements, mul, identity, key=repr):
    n = len(elements)
    if n == 1:
        return []
    orders = {x: element_order(x, mul, identity, bound=n) for x in elements}
    basis = []
    x = min(elements, key=lambda y: (-orders[y], key(y)))  # order = exponent
    m = orders[x]
    basis.append((x, m))
    if m == n:
        return basis
    # quotient by <x>, recurse, and lift generators back
    xpow = [identity]
    for _ in range(1, m):
        xpow.append(mul(xpow[-1], x))
    cyc = {acc: k for k, acc in enumerate(xpow)}
    coset_rep = {y: min((mul(y, acc) for acc in xpow), key=key) for y in elements}
    quotient = sorted(set(coset_rep.values()), key=key)

    def qmul(u, v):
        return coset_rep[mul(u, v)]

    for gen_bar, order_bar in coset_minima_basis(quotient, qmul, coset_rep[identity], key):
        t = cyc[power(gen_bar, order_bar, mul, identity)]
        if t % order_bar:
            raise ArithmeticError("abelian basis lifting failed")
        lifted = mul(gen_bar, xpow[(m - t // order_bar) % m])
        basis.append((lifted, order_bar))
    return basis


class TestBasisAgainstCosetMinima:
    """``_abelian_basis`` makes the same choices as the oracle: the same
    generators, in the same order, with the same orders."""

    def test_class_groups_to_3000(self):
        for d in range(2, 3001):
            if not is_squarefree(d):
                continue
            table = _ClassTable(make_field(d).disc)
            for flavor in ("narrow", "wide"):
                rep, mul = table.law(flavor)
                elements = sorted({rep(i) for i in range(len(table.classes))})
                args = (elements, mul, rep(table.identity), table.keys.__getitem__)
                assert _abelian_basis(*args) == coset_minima_basis(*args), (d, flavor)

    def test_relabelled_abelian_groups_to_64(self):
        for seed, factors in enumerate(abelian_group_types(64)):
            args = relabelled_abelian_group(factors, seed) + (int,)
            assert _abelian_basis(*args) == coset_minima_basis(*args), factors

    @pytest.mark.parametrize("d", [100000001, 100000002, 100000010])
    def test_products_near_1e8_stay_linear_in_h(self, d, monkeypatch):
        # the oracle's walks make 437 409 products at d = 100000001 (h+ = 720)
        calls = 0
        mul = _ClassTable.mul

        def counted(self, i, j):
            nonlocal calls
            calls += 1
            return mul(self, i, j)

        monkeypatch.setattr(_ClassTable, "mul", counted)
        h_plus, group = class_data(make_field(d))
        assert group.generators and 0 < calls <= 10 * h_plus, (calls, h_plus)


class TestClassGroup:
    def test_wide_79(self, field79):
        g = class_group(field79, "wide")
        assert g.h == 3 and g.elementary_divisors == (3,)

    def test_narrow_79(self, field79):
        g = class_group(field79, "narrow")
        assert g.h == 6 and g.elementary_divisors == (6,)

    def test_wide_40(self, field10):
        assert class_group(field10, "wide").h == 2

    def test_wide_5(self):
        g = class_group(make_field(5), "wide")
        assert g.h == 1 and g.elementary_divisors == ()

    def test_narrow_wide_ratio_matches_unit_norm(self):
        for d in range(2, 200):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            narrow = class_group(F, "narrow")
            wide = class_group(F, "wide")
            ratio = narrow.h // wide.h
            expected = 1 if fundamental_unit(F).unit_norm == -1 else 2
            assert ratio == expected, f"d={d}"

    def test_odd_parts_coincide(self):
        def odd(xs):
            out = []
            for x in xs:
                while x % 2 == 0:
                    x //= 2
                if x > 1:
                    out.append(x)
            return sorted(out)

        for d in SAMPLE_D:
            F = make_field(d)
            assert odd(class_group(F, "narrow").elementary_divisors) == odd(
                class_group(F, "wide").elementary_divisors
            ), f"d={d}"

    def test_generator_orders_equal_divisors(self):
        for d in (79, 10, 226, 399, 442, 4002):
            for flavor in ("narrow", "wide"):
                g = class_group(make_field(d), flavor)
                assert len(g.generators) == len(g.elementary_divisors)
                prod = 1
                for gen, divisor in zip(g.generators, g.elementary_divisors):
                    assert g.order_of(gen) == divisor
                    prod *= divisor
                assert prod == g.h
                for a, b in zip(g.elementary_divisors, g.elementary_divisors[1:]):
                    assert b % a == 0


class TestPrimeForm:
    def test_above_3_for_79(self, field79):
        assert prime_form_raw(field79, 3).as_tuple() == (3, 2, -26)

    def test_order_of_class_above_3(self, field79):
        wide = class_group(field79, "wide")
        assert wide.order_of(prime_form(field79, 3)) == 3

    def test_ramified_form(self, field79):
        assert prime_form_raw(field79, 79).as_tuple() == (79, 0, -1)

    def test_inert_has_no_form(self, field79):
        with pytest.raises(InertPrimeError):
            prime_form(field79, 37)


def scan_prime_form(F, ell):
    """The form (ell, b, c) with minimal b in [0, 2*ell), by the scan over
    every such b that ``prime_form_raw`` ran before it read b off the
    roots +-sqrt(D) mod ell; its oracle."""
    D = F.disc
    for b in range(0, 2 * ell):
        if (b * b - D) % (4 * ell) == 0:
            f = BinaryQuadraticForm(ell, b, (b * b - D) // (4 * ell))
            if f.is_primitive():
                return f
    raise InertPrimeError(f"{ell} is inert: no form of discriminant {D} represents it")


def test_prime_form_matches_scan_below_1000():
    # squarefree d < 1000 against every prime l < 200: split, ramified
    # (odd and at 2) and inert, where both raise
    primes = primes_up_to(199)
    for d in filter(is_squarefree, range(2, 1000)):
        F = make_field(d)
        for ell in primes:
            try:
                want = scan_prime_form(F, ell)
            except InertPrimeError:
                with pytest.raises(InertPrimeError):
                    prime_form_raw(F, ell)
            else:
                assert prime_form_raw(F, ell) == want, (d, ell)


def scan_prime_triple(D, ell):
    """``scan_prime_form`` on a bare discriminant, None when l is inert."""
    for b in range(2 * ell):
        c, rest = divmod(b * b - D, 4 * ell)
        if rest == 0 and gcd(ell, b, c) == 1:
            return ell, b, c
    return None


def test_prime_triple_matches_scan_to_10000():
    # every D <= 10^4 that is 0 or 1 mod 4 and not a square, fundamental or
    # not, against every prime l <= 97: split, inert, l = 2 and l | D
    primes = primes_up_to(97)
    for D in range(2, 10_001):
        if D % 4 < 2 and not is_square(D):
            for ell in primes:
                assert formclass._prime_triple(D, ell) == scan_prime_triple(D, ell), (D, ell)


class TestPolya:
    def test_example_316(self, field79):
        r = polya_report(field79)
        assert r.ramified_primes == (2, 79)
        assert r.polya_order == 1 and r.h1_order == 4

    def test_example_40(self, field10):
        r = polya_report(field10)
        assert r.polya_order == 2 and r.h1_order == 2

    def test_example_5(self):
        r = polya_report(make_field(5))
        assert r.polya_order == 1 and r.h1_order == 2

    def test_cocycle_oracle_to_1000(self):
        # independent description of the degree-2 unit cohomology from the
        # action on {+-eps^k}: order 4 when the unit norm is +1, else 2
        for d in range(2, 1001):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            r = polya_report(F)
            s = len(r.ramified_primes)
            assert r.h1_order * r.polya_order == 2**s, f"d={d}"
            assert r.polya_order & (r.polya_order - 1) == 0, f"d={d}"
            expected_h1 = 4 if fundamental_unit(F).unit_norm == 1 else 2
            assert r.h1_order == expected_h1, f"d={d}"


class TestNonCyclicStructure:
    @pytest.mark.parametrize("d,divs", [(130, (2, 2)), (399, (2, 4)), (210, (2, 2))])
    def test_divisors_match_order_counts(self, d, divs):
        from math import gcd

        g = class_group(make_field(d), "wide")
        assert g.elementary_divisors == divs
        e = g.identity()
        for k in (2, 3, 4, 6):
            count = 0
            for x in g.elements:
                acc, kk, base = e, k, x
                while kk:
                    if kk & 1:
                        acc = g.mul(acc, base)
                    base = g.mul(base, base)
                    kk >>= 1
                if acc == e:
                    count += 1
            expected = 1
            for dv in divs:
                expected *= gcd(k, dv)
            assert count == expected, f"d={d}, k={k}"


# Two checks of the printed structure that run no ``_abelian_basis``.  Genus
# theory gives the narrow 2-rank with no group law: it is omega(D) - 1, for
# omega(D) the number of primes dividing D (Buell, *Binary Quadratic Forms*,
# ch. 6).  And an abelian group with invariant factors m_1 | ... | m_r has
# prod gcd(k, m_i) elements with x^k = 1; these counts for every k dividing
# the exponent, with h = prod m_i, determine the group.
SQUAREFREE_TO_10_000 = [d for d in range(2, 10_001) if is_squarefree(d)]


class TestStructureWithoutTheBasis:
    def test_genus_2_rank_and_order_counts(self):
        for d in SQUAREFREE_TO_10_000:
            D = make_field(d).disc
            table = _ClassTable(D)  # one table for both flavors, as class_data shares it
            for flavor in ("narrow", "wide"):
                divs = _group_structure(table, flavor).elementary_divisors
                if flavor == "narrow":
                    assert sum(m % 2 == 0 for m in divs) == len(factorize(D)) - 1, d
                rep, mul = table.law(flavor)
                one = rep(table.identity)
                elements = {rep(i) for i in range(len(table.classes))}
                assert len(elements) == prod(divs), (d, flavor)
                for k in divisors(divs[-1] if divs else 1):
                    count = sum(power(x, k, mul, one) == one for x in elements)
                    assert count == prod(gcd(k, m) for m in divs), (d, flavor, k)


class TestRelationsAgainstTheBasis:
    def test_every_discriminant_to_10000(self):
        # fundamental or not: h and the divisors read off the power relations
        # against the basis that ``_structure`` finds on the table's law
        fields = 0
        for D in range(5, 10_001):
            if D % 4 > 1 or is_square(D):
                continue
            table = _ClassTable(D)
            for flavor in ("narrow", "wide"):
                group = _group_structure(table, flavor)
                rep, mul = table.law(flavor)
                elements = sorted({rep(i) for i in range(len(table.classes))})
                divs, _ = _structure(elements, mul, rep(table.identity), table.keys.__getitem__)
                assert (group.h, group.elementary_divisors) == (len(elements), divs), (D, flavor)
            fields += 1
        assert fields == 4900

    def test_basis_that_disagrees_is_refused(self, monkeypatch):
        group = class_group(make_field(399), "wide")
        monkeypatch.setattr(formclass, "_structure", lambda *args: ((8,), (0,)))
        with pytest.raises(ArithmeticError, match=r"basis orders \(8,\) differ"):
            group.generators


class TestReducedFormEnumeration:
    def test_matches_brute_force_to_2000(self):
        # a reduced form has |a| < sqrt(D) and b < sqrt(D), so the double
        # loop below sees every one
        for d in range(2, 2001):
            if not is_squarefree(d):
                continue
            D = make_field(d).disc
            s = isqrt(D)
            naive = set()
            for a in range(1, s + 1):
                for b in range(1, s + 1):
                    if (b * b - D) % (4 * a):
                        continue
                    for sa in (a, -a):
                        f = BinaryQuadraticForm(sa, b, (b * b - D) // (4 * sa))
                        if is_reduced(f) and f.is_primitive():
                            naive.add(f)
            got = all_reduced_forms(D)
            assert len(got) == len(naive) and set(got) == naive, f"d={d}"


def trial_division_reduced_forms(D: int) -> list[BinaryQuadraticForm]:
    """Every reduced primitive form of positive non-square discriminant D."""
    if D <= 0 or is_square(D):
        raise SquareDiscriminantError(f"{D} is not a valid indefinite discriminant")
    out = []
    s = isqrt(D)
    for b in range(2 - D % 2, s + 1, 2):
        m = (D - b * b) // 4
        # (a, b, -m/a) and (-a, b, m/a) are reduced together exactly when
        # sqrt(D) - b < 2a < sqrt(D) + b, that is when lo <= a <= hi
        lo, hi = (s - b) // 2 + 1, (s + b) // 2
        for a in divisors(m):
            if a > hi:
                break
            c = m // a
            if a >= lo and gcd(gcd(a, b), c) == 1:
                out.append(BinaryQuadraticForm(a, b, -c))
                out.append(BinaryQuadraticForm(-a, b, c))
    return out


# positive non-square D = 0, 1 (mod 4), fundamental or not
DISCRIMINANTS = st.builds(
    lambda k, t: 4 * k + t, st.integers(1, 10_000), st.sampled_from((0, 1))
).filter(lambda D: not is_square(D))


class TestReducedFormSieve:
    """The forms of the generated class table against trial division of
    every (D - b^2)/4 (``trial_division_reduced_forms``), and the two facts
    the split-prime sieve oracle (``_reduced_triples``) rests on."""

    @pytest.mark.parametrize(
        "window",
        [
            range(100_000, 100_060),
            range(1_000_000, 1_000_030),
            (10_000_001, 10_000_002),
        ],
    )
    def test_matches_trial_division_on_large_fields(self, window):
        for d in window:
            if is_squarefree(d):
                D = make_field(d).disc
                got, expected = all_reduced_forms(D), trial_division_reduced_forms(D)
                assert len(got) == len(expected) and set(got) == set(expected), f"d={d}"

    @pytest.mark.parametrize(
        "D",
        # the discriminants of the composition tests, then k^2 * D0 for
        # fundamental D0, then tiny ones that have no prime up to isqrt(D // 4)
        [316, 40, 145, 1756, 45, 200, 108, 637, 2541, 3328, 5, 8, 12, 13],
    )
    def test_matches_trial_division_on_other_discriminants(self, D):
        got, expected = all_reduced_forms(D), trial_division_reduced_forms(D)
        assert len(got) == len(expected) and set(got) == set(expected)

    @pytest.mark.parametrize("D", [6, 10, 14, 15, 23])
    def test_discriminant_not_0_or_1_mod_4_is_rejected(self, D):
        message = f"^{D} is not 0 or 1 modulo 4$"
        for entry in (all_reduced_forms, _ClassTable):
            with pytest.raises(DiscriminantCongruenceError, match=message):
                entry(D)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(D=DISCRIMINANTS)
    @example(D=4 * 3 * 5 * 7 * 11)  # four ramified odd primes
    @example(D=9 * 5 * 13)  # p^2 | D
    def test_odd_primes_divide_exactly_on_the_sieved_progressions(self, D):
        s = isqrt(D)
        ms = [(D - b * b) // 4 for b in range(2 - D % 2, s + 1, 2)]
        for p in primes_up_to(isqrt(D // 4))[1:]:
            starts = _progression_starts(D, p)
            assert len(starts) == (1 if D % p == 0 else 1 + kronecker(D, p)), f"p={p}"
            assert all(0 <= i0 < p for i0 in starts)
            divided = {i for i, m in enumerate(ms) if m % p == 0}
            assert divided == {i for i in range(len(ms)) if i % p in starts}, f"p={p}"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(D=DISCRIMINANTS)
    def test_a_is_in_the_reduced_window_exactly_when_its_cofactor_is(self, D):
        s = isqrt(D)
        for b in range(2 - D % 2, s + 1, 2):
            m = (D - b * b) // 4
            lo, hi = (s - b) // 2 + 1, (s + b) // 2
            for a in divisors(m):
                assert (lo <= a <= hi) == (lo <= m // a <= hi), f"b={b} a={a}"


class TestMinkowskiOracle:
    def test_long_ideal_cycle_closes_near_1e8(self, monkeypatch):
        # the principal ideal cycle of d = 100000039 is longer than the
        # reduction's fixed step cap
        steps = 0

        def counted(P, Q, D):
            nonlocal steps
            steps += 1
            return floor_quadsurd(P, Q, D)

        monkeypatch.setattr(formclass, "floor_quadsurd", counted)
        D = make_field(100000039).disc
        least = formclass._ideal_cycle_canonical(D, 0, 2)
        assert steps > formclass._MAX_REDUCE_STEPS
        assert formclass._ideal_cycle_canonical(D, *least) == least

    def test_agrees_with_forms_to_600(self):
        for d in range(2, 601):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            assert class_group(F, "wide").h == minkowski_class_number(F), f"d={d}"


# The ideal-product law, an oracle of the table's wide law that shares none
# of its code.  A form (a, b, c) gives the ideal [|a|, (-b + sqrt(D))/2]; the
# product of two ideals is the lattice spanned by the four products of their
# basis elements.  Its Hermite normal form over {1, w}, w = (D % 2 +
# sqrt(D))/2, divided by its content, is a primitive ideal [A, (B + sqrt(D))/2]
# (Cohen, GTM 138, 5.2), and the Minkowski oracle's ideal cycle of (B, 2A)
# names its wide class.  The law reads extended gcds on lattice vectors, not
# the linear congruences of ``_compose_forms``.


def form_ideal(f: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Basis of the ideal of f as pairs (x, y) of (x + y*sqrt(D))/2."""
    return [(2 * abs(f[0]), 0), (-f[1], 1)]


def ideal_product(D: int, f: tuple[int, int, int], g: tuple[int, int, int]):
    """The four products of the bases of the ideals of f and g, as pairs."""
    return [((x1 * x2 + D * y1 * y2) // 2, (x1 * y2 + x2 * y1) // 2)
            for x1, y1 in form_ideal(f) for x2, y2 in form_ideal(g)]


def ideal_name(D: int, gens: list[tuple[int, int]]) -> tuple[int, int]:
    """The ideal cycle naming the wide class of the ideal that the pairs
    gens span, from its Hermite normal form Z*a + Z*(b + c*w)."""
    top, a = (0, 0), 0
    for v in (((x - y * (D % 2)) // 2, y) for x, y in gens):  # over {1, w}
        while v[1]:  # Euclid on the w-coordinate keeps the span
            q = top[1] // v[1]
            top, v = v, (top[0] - q * v[0], top[1] - q * v[1])
        a = gcd(a, v[0])
    b, c = top if top[1] > 0 else (-top[0], -top[1])
    assert a % c == 0 and b % c == 0, (a, b, c)  # c, the content, divides an ideal's HNF
    A = a // c
    return formclass._ideal_cycle_canonical(D, 2 * (b // c % A) + D % 2, 2 * A)


class TestIdealLaw:
    def test_table_wide_law_matches_ideal_products_to_10000(self):
        pairs = 0
        for d in SQUAREFREE_TO_10_000:
            D = make_field(d).disc
            table = _ClassTable(D)
            rep, mul = table.law("wide")
            wide = sorted({rep(i) for i in range(len(table.classes))})
            forms = {i: table.classes[i].canonical.as_tuple() for i in wide}
            names = {i: ideal_name(D, form_ideal(forms[i])) for i in wide}
            assert len(set(names.values())) == len(wide), d  # the name tells classes apart
            for i in wide:
                for j in wide:
                    got = ideal_name(D, ideal_product(D, forms[i], forms[j]))
                    assert got == names[mul(i, j)], (d, i, j)
            pairs += len(wide) ** 2
        assert pairs == 110_900

    def test_composition_check_instance_by_ideal_products(self):
        # criterion 8 at d = 79: P and Q carry the class c above 3, W
        # carries c^2, and a Q carrying c^2 makes a principal product
        F = make_field(79)
        D = F.disc
        ext = RelativeExtension(period_polynomial(37, 3, 1), F)
        alpha = ext.scalar(-fundamental_unit(F).value)
        c = prime_form(F, 3)
        P, W = (ext.family_polynomial(alpha, attached_class=x) for x in (c, c * c))
        f, w = (x.attached_class.canonical.as_tuple() for x in (P, W))
        one = ideal_name(D, form_ideal((1, D % 2, (D % 2 - D) // 4)))
        assert composition_check(P, P, W).class_correspondence
        assert ideal_name(D, ideal_product(D, f, f)) == ideal_name(D, form_ideal(w)) != one
        with pytest.raises(OrderViolationError):
            composition_check(P, W, W)
        assert ideal_name(D, ideal_product(D, f, w)) == one
