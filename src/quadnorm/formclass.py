"""Class groups of real quadratic fields via indefinite binary quadratic forms.

Reduction cycles decide equivalence and Gauss/Dirichlet composition gives
the one group law, run by ``_ClassTable`` on (a, b, c) integer triples
through one rho step; the table generates the classes from the principal
cycle, its negation and the prime forms below isqrt(D // 4).  That
generation is a presentation of the group: each prime that grows it
leaves one power relation, and h and the elementary divisors are the
invariant factors of the relation lattice.  The classes' names, the
elements and the generators (by ``_abelian_basis``) are built only when
read.  Every class group, and ``compose.composition_check``, works on the
table's class indices; the wide group is the quotient of the narrow one by
the class of a form representing -1.  A separate ideal-cycle enumeration
under the Minkowski bound provides an independent class-number oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import gcd, isqrt, prod
from operator import itemgetter

from .intmath import (
    closure,
    cycle,
    factorize,
    floor_quadsurd,
    invariant_factors,
    is_prime,
    is_square,
    kronecker,
    power,
    primes_up_to,
    sqrt_mod_prime,
)
from .quadfield import NotPrimeError, QuadraticField, _rho

_MAX_REDUCE_STEPS = 10_000


class ImprimitiveError(ValueError):
    """gcd(a, b, c) > 1."""


class SquareDiscriminantError(ValueError):
    """Discriminant is a perfect square (or not positive)."""


class DiscriminantCongruenceError(ValueError):
    """Discriminant is not congruent to 0 or 1 modulo 4."""


class DiscriminantMismatchError(ValueError):
    pass


class InertPrimeError(ValueError):
    """No form of the given discriminant represents the prime."""


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _validate(f: BinaryQuadraticForm) -> None:
    D = f.disc
    if D <= 0 or is_square(D):
        raise SquareDiscriminantError(f"discriminant {D} is not positive non-square")
    if not f.is_primitive():
        raise ImprimitiveError(f"{f.as_tuple()} is imprimitive")


@dataclass(frozen=True)
class FormClass:
    """A proper equivalence class, named by the least form of its cycle."""

    canonical: BinaryQuadraticForm
    cycle_length: int

    @property
    def disc(self) -> int:
        return self.canonical.disc

    def __mul__(self, other: "FormClass") -> "FormClass":
        if self.disc != other.disc:
            raise DiscriminantMismatchError(
                f"discriminants differ: {self.disc} vs {other.disc}"
            )
        f, g = self.canonical.as_tuple(), other.canonical.as_tuple()
        return reduction_cycle(BinaryQuadraticForm(*_compose_forms(f, g)))


def reduction_cycle(f: BinaryQuadraticForm) -> FormClass:
    """Canonical representative of the proper equivalence class of f.

    Two forms are equivalent exactly when their canonical representatives
    agree: the rho operator permutes the reduced forms of a discriminant,
    and its orbits are the classes.
    """
    _validate(f)
    D = f.disc
    return _cycle_class(_rho_cycle(_reduce(f.as_tuple(), D, isqrt(D)), D))


def _reduce(f: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """The first reduced triple in the rho-orbit of f, of discriminant D not
    a square: |sqrt(D) - 2|a|| < b < sqrt(D), that is 0 < b <= s and
    s - b < 2|a| <= s + b for s = isqrt(D)."""
    a, b, c = f
    for _ in range(_MAX_REDUCE_STEPS):
        if 0 < b <= s and s - b < 2 * abs(a) <= s + b:
            return a, b, c
        a, b, c = _rho(b, c, D, s)
    raise ArithmeticError(f"reduction did not terminate for {f}")


def _rho_cycle(g: tuple[int, int, int], D: int) -> list[tuple[int, int, int]]:
    """The rho-orbit of the reduced triple g of discriminant D, from g.

    rho permutes the reduced triples, so an orbit is no longer than their
    number, which is below D: each b <= s = isqrt(D) of the parity of D
    gives at most 2b reduced triples (b values of |a| and two signs).
    """
    s = isqrt(D)
    cycle = [g]
    h = _rho(g[1], g[2], D, s)
    while h != g:
        cycle.append(h)
        h = _rho(h[1], h[2], D, s)
        if len(cycle) > D:
            raise ArithmeticError("cycle walk did not close")
    return cycle


def _cycle_class(cycle: list[tuple[int, int, int]]) -> FormClass:
    # the least (|a|, (a, b, c)), which is ``_class_key`` order
    _, least = min(zip(map(abs, map(itemgetter(0), cycle)), cycle))
    return FormClass(canonical=BinaryQuadraticForm(*least), cycle_length=len(cycle))


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) with solutions x0 + step*Z."""
    g = gcd(a, m)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    mm = m // g
    x0 = (b // g) * pow(a // g, -1, mm) % mm
    return x0, mm


def _compose_forms(
    f1: tuple[int, int, int], f2: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Dirichlet composition of two primitive triples of equal discriminant."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    beta = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), beta)
    s = a1 // w
    t = a2 // w
    u = beta // w
    k0, step = _solve_linmod(t * u, h * u + s * c1, s * t)
    n0, _ = _solve_linmod(t * step, h - t * k0, s)
    k = k0 + step * n0
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    return s * t, w * u - (k * t + ell * s), k * ell - w * m


def _prime_triple(D: int, ell: int) -> tuple[int, int, int] | None:
    """The primitive triple (ell, b, c) of discriminant D with least b in
    [0, 2*ell), for a prime ell; None when ell is inert or divides the
    conductor of D.  As D = 0, 1 (mod 4), 4*ell | b^2 - D exactly when b =
    D (mod 2) and b^2 = D (mod ell): for odd ell, b is a root +-sqrt(D)
    moved by ell to the parity of D (none when the root's own check finds
    (D/ell) = -1), and for ell = 2, b^2 = D (mod 8)."""
    if ell == 2:
        bs = [b for b in range(4) if (b * b - D) % 8 == 0]
    else:
        try:
            r = sqrt_mod_prime(D, ell)
        except ValueError:  # (D/ell) = -1
            return None
        bs = sorted({s + ell * ((s - D) % 2) for s in (r, (ell - r) % ell)})
    for b in bs:
        c = (b * b - D) // (4 * ell)
        if b % ell or c % ell:
            return ell, b, c
    return None


def all_reduced_forms(D: int) -> list[BinaryQuadraticForm]:
    """Every reduced primitive form of discriminant D, which must be
    positive, non-square and 0 or 1 mod 4: the forms of the class table's
    cycles."""
    return [BinaryQuadraticForm(*f) for f in _ClassTable(D).index]


# the _ClassTable attributes that name the classes, built on first read
_NAMES = frozenset({"classes", "rank", "negation", "keys", "identity", "sign"})


class _ClassTable:
    """The narrow class group of one discriminant on class indices.

    rho commutes with (a, b, c) -> (-a, b, -c), which maps class C to
    C*sign, so one cycle walk numbers both.  The principal cycle and its
    negation start a subgroup H; each prime form (ell, b, c), ell <=
    isqrt(D // 4), not in H grows H by its cosets H*g, H*g^2, ... up to the
    first power back in H, each new pair of classes one composition and one
    cycle walk.  For a field discriminant that is the whole group: adjacent
    (a, b, c), (c, b', c') of a cycle have |a*c| = (D - b^2)/4 < D/4, so
    every cycle holds a triple with |a| <= isqrt(D // 4), in C or, negated,
    in C*sign; and the ideal of norm |a| is a product of primes of norm ell
    <= |a| (Cohen, GTM 138, 5.2-5.4).  For a non-fundamental D there is no
    such proof; tests check it.

    A prime ell builds no triple when it is inert, or when some triple in
    H's cycles has |a| = ell: H is closed under negation and inversion, and
    every (ell, b, c) is the prime triple or its inverse (ell, -b, c) after
    b -> b + 2*ell*k, so the loop would not grow H.

    ``index`` maps every reduced triple to the generation number of its
    cycle, written once.  The numbers are a presentation of the group
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, ch.
    8): the i-th coset of a new generator g_k lists H[j]*g_k^i in H's
    order, so for generators g_1, ..., g_k of relative orders r_1, ...,
    r_k, the class numbered m*p + e_0, m = ``sign_order``, is sign^e_0 *
    g_1^e_1 * ... * g_k^e_k for the mixed-radix digits p = e_1 + r_1*(e_2
    + r_2*(...)).  Each generator leaves one power relation, g_k^r_k = the
    class at which its loop stops, read from ``index``; ``relations`` lists
    them as a lattice whose Smith form is the group's structure.

    The names are built on first read: ``classes`` in ``_class_key`` order,
    ``rank`` from generation numbers to that order, and ``negation``,
    ``keys``, ``identity`` and ``sign`` on ranks.  A product composes the
    two canonical triples, takes the few rho steps to the first reduced
    triple and looks it up; products are memoised, so the table is a lazily
    filled Cayley table that lives as long as the structure that owns it.
    """

    def __init__(self, D: int):
        if D <= 0 or is_square(D):
            raise SquareDiscriminantError(f"{D} is not a valid indefinite discriminant")
        if D % 4 > 1:
            raise DiscriminantCongruenceError(f"{D} is not 0 or 1 modulo 4")
        s = isqrt(D)
        cycles, index, norms = [], {}, set()

        def add(f: tuple[int, int, int]) -> int:
            # numbers the cycle of a new reduced f, and its negation if distinct
            cyc = _rho_cycle(f, D)
            i = len(cycles)
            index.update(zip(cyc, repeat(i)))
            cycles.append(cyc)
            norms.update(map(abs, map(itemgetter(0), cyc)))  # the negated cycle's too
            if (-f[0], f[1], -f[2]) not in index:  # the sign class is not principal
                neg = [(-a, b, -c) for a, b, c in cyc]
                index.update(zip(neg, repeat(i + 1)))
                cycles.append(neg)
            return i

        t = D % 2
        H = [add(_reduce((1, t, (t - D) // 4), D, s))]  # one class of each negation pair
        powers = []  # (r_k, generation number of g_k^r_k) per generator g_k
        for ell in primes_up_to(isqrt(D // 4)):
            if ell in norms or kronecker(D, ell) == -1:
                continue
            f = _prime_triple(D, ell)
            if f is None:
                continue
            y, grown, coset = _reduce(f, D, s), [], H
            while y not in index:
                coset = [add(y)] + [
                    add(_reduce(_compose_forms(cycles[x][0], f), D, s)) for x in coset[1:]
                ]
                grown += coset
                y = _reduce(_compose_forms(cycles[coset[0]][0], f), D, s)
            if grown:
                powers.append((len(grown) // len(H) + 1, index[y]))
                H += grown
        self.D = D
        self.s = s
        self.cycles = cycles
        self.index = index
        self.sign_order = len(cycles) // len(H)  # 1 when the sign class is principal
        self._powers = powers
        self._products: dict[tuple[int, int], int] = {}

    def relations(self, flavor: str) -> list[list[int]]:
        """The relation lattice, lower-triangular: the narrow group's on
        (sign, g_1, ..., g_k), rows m*e_sign and r_k*e_k - vec(g_k^r_k) for
        m = ``sign_order``, or the wide group's, the same rows without the
        sign row and column."""
        m, k = self.sign_order, len(self._powers)
        rows = [[m] + [0] * k]
        for t, (r, g) in enumerate(self._powers):
            row, p = [-(g % m)] + [0] * k, g // m
            for u in range(t):
                p, e = divmod(p, self._powers[u][0])
                row[u + 1] = -e
            row[t + 1] = r
            rows.append(row)
        return rows if flavor == "narrow" else [row[1:] for row in rows[1:]]

    def __getattr__(self, name: str):
        # the names, built on the first read of any of them
        if name not in _NAMES:
            raise AttributeError(name)
        classes = [_cycle_class(cyc) for cyc in self.cycles]
        order = sorted(range(len(classes)), key=lambda i: _class_key(classes[i]))
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        flip = self.sign_order - 1  # i ^ flip numbers the negated cycle of i
        self.classes = [classes[i] for i in order]
        self.rank = rank
        # the class of the negated cycle, class * sign
        self.negation = [rank[i ^ flip] for i in order]
        # keys in repr(FormClass) order, in which _abelian_basis picks
        # generators: the repr's text up to the form's ")", as two classes
        # never share a form
        self.keys = ["%d, b=%d, c=%d)" % c.canonical.as_tuple() for c in self.classes]
        self.identity = rank[0]
        self.sign = rank[flip]  # represents -1
        return getattr(self, name)

    def class_of(self, f: tuple[int, int, int]) -> int:
        """Index of the class of f, a primitive triple of discriminant D."""
        return self.rank[self.index[_reduce(f, self.D, self.s)]]

    def index_of(self, cls: FormClass) -> int:
        if cls.disc != self.D:
            raise DiscriminantMismatchError(
                f"discriminants differ: {cls.disc} vs {self.D}"
            )
        return self.class_of(cls.canonical.as_tuple())

    def mul(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        k = self._products.get(key)
        if k is None:
            f, g = (self.classes[x].canonical.as_tuple() for x in (i, j))
            k = self._products[key] = self.class_of(_compose_forms(f, g))
        return k

    def wide_rep(self, i: int) -> int:
        """Wide representative of class i: the lesser of i and i*sign, sign
        being the class of a form representing -1 (index order is
        ``_class_key`` order), and i*sign the class of the negated cycle."""
        return min(i, self.negation[i])

    def law(self, flavor: str):
        """(representative, product) on indices in the narrow or wide group."""
        if flavor == "narrow":
            return (lambda i: i), self.mul
        return self.wide_rep, lambda i, j: self.wide_rep(self.mul(i, j))


def _class_key(c: FormClass) -> tuple[int, int, int, int]:
    f = c.canonical
    return (abs(f.a), f.a, f.b, f.c)


@dataclass(frozen=True)
class ClassGroupStructure:
    """The narrow or the wide class group of one class table.

    ``h`` and ``elementary_divisors`` are read off the table's relations.
    ``elements``, ``generators`` and ``_sign_class`` are built on first
    read, the generators by ``_abelian_basis``, whose orders must equal the
    divisors.
    """

    flavor: str  # "narrow" | "wide"
    h: int
    elementary_divisors: tuple[int, ...]
    generators: tuple[FormClass, ...] = field(init=False)
    elements: tuple[FormClass, ...] = field(init=False)
    _sign_class: FormClass | None = field(init=False)
    _table: _ClassTable = field(kw_only=True, compare=False, repr=False)

    def __getattr__(self, name: str):
        # a field left out of __init__, built on its first read
        if name not in ("generators", "elements", "_sign_class"):
            raise AttributeError(name)
        table = self._table
        if name == "_sign_class":
            value = None if self.flavor == "narrow" else table.classes[table.sign]
        else:
            rep, mul = table.law(self.flavor)
            indices = sorted({rep(i) for i in range(len(table.cycles))})
            if name == "elements":
                value = tuple(table.classes[i] for i in indices)
            else:
                one = rep(table.identity)
                divs, gens = _structure(indices, mul, one, table.keys.__getitem__)
                if divs != self.elementary_divisors:
                    raise ArithmeticError(
                        f"basis orders {divs} differ from the relation divisors "
                        f"{self.elementary_divisors} at discriminant {table.D}"
                    )
                value = tuple(table.classes[i] for i in gens)
        object.__setattr__(self, name, value)
        return value

    def _index(self, cls: FormClass) -> int:
        rep, _ = self._table.law(self.flavor)
        return rep(self._table.index_of(cls))

    def rep(self, cls: FormClass) -> FormClass:
        """Canonical representative of cls inside this group's element set."""
        return self._table.classes[self._index(cls)]

    def mul(self, x: FormClass, y: FormClass) -> FormClass:
        _, mul = self._table.law(self.flavor)
        return self._table.classes[mul(self._index(x), self._index(y))]

    def identity(self) -> FormClass:
        return self.rep(self._table.classes[self._table.identity])

    def order_of(self, cls: FormClass) -> int:
        rep, mul = self._table.law(self.flavor)
        one = rep(self._table.identity)
        return len(cycle(self._index(cls), mul, one, bound=self.h))


def _abelian_basis(elements, mul, identity, key=repr):
    """Basis (generators with orders) of a finite abelian group, exactly;
    each order divides the one before it.

    Works on any hashable element list with a multiplication callback;
    ``key`` orders the elements where a choice is made.  One ``cycle`` per
    cyclic subgroup gives every order (x^j has order m/gcd(j, m)), and one
    sweep in ``key`` order meets each coset y<x> first at its least element.
    """
    n = len(elements)
    if n == 1:
        return []
    orders = {}
    for y in elements:
        if y not in orders:
            powers = cycle(y, mul, identity, bound=n)
            m = len(powers)
            orders.update((z, m // gcd(j, m)) for j, z in enumerate(powers))
    basis = []
    x = min(elements, key=lambda y: (-orders[y], key(y)))  # order = exponent
    m = orders[x]
    basis.append((x, m))
    if m == n:
        return basis
    # quotient by <x>, recurse, and lift generators back
    xpow = cycle(x, mul, identity)
    cyc = {acc: k for k, acc in enumerate(xpow)}
    coset_rep, quotient = {}, []
    for y in sorted(elements, key=key):
        if y not in coset_rep:
            quotient.append(y)
            coset_rep.update((mul(y, acc), y) for acc in xpow)

    def qmul(u, v):
        return coset_rep[mul(u, v)]

    for gen_bar, order_bar in _abelian_basis(quotient, qmul, coset_rep[identity], key):
        t = cyc[power(gen_bar, order_bar, mul, identity)]
        if t % order_bar:
            raise ArithmeticError("abelian basis lifting failed")
        lifted = mul(gen_bar, xpow[(m - t // order_bar) % m])
        basis.append((lifted, order_bar))
    return basis


def _structure(elements, mul, identity, key=repr) -> tuple[tuple[int, ...], tuple]:
    """Elementary divisors d1 | d2 | ... (ascending) and generators of those
    orders, read off ``_abelian_basis`` as an invariant-factor chain.

    The basis quotients by an element of the largest order m, and the
    quotient's exponent divides m, so its orders already form a chain in
    which each divides the one before; the divisors are those orders
    reversed (Cohen, GTM 138).  A basis element g of order m gives the
    generator g^(sum over p^k || m of m/p^k), the product of its primary
    parts, which has order m too.
    """
    basis = _abelian_basis(elements, mul, identity, key)[::-1]
    gens = tuple(
        power(g, sum(m // p**k for p, k in factorize(m).items()), mul, identity)
        for g, m in basis
    )
    return tuple(m for _, m in basis), gens


def _group_structure(table: _ClassTable, flavor: str) -> ClassGroupStructure:
    """The narrow group, or the wide group as the quotient of the narrow one
    by the sign class: h counted from the table, the elementary divisors
    the invariant factors of its relation lattice, whose determinant is h."""
    divs = tuple(invariant_factors(table.relations(flavor)))
    h = len(table.cycles) // (1 if flavor == "narrow" else table.sign_order)
    if prod(divs) != h:
        raise ArithmeticError(
            f"relation divisors {divs} do not multiply to h = {h} at discriminant {table.D}"
        )
    return ClassGroupStructure(flavor, h, divs, _table=table)


def class_group(F: QuadraticField, flavor: str = "wide") -> ClassGroupStructure:
    """Class group of the field, narrow or wide.

    The narrow group is generated from the prime forms of the field
    discriminant (``_ClassTable``); the wide group is its quotient by the
    class of a form representing -1 (trivial exactly when the fundamental
    unit has norm -1).
    """
    if flavor not in ("narrow", "wide"):
        raise ValueError("flavor must be 'narrow' or 'wide'")
    return _group_structure(_ClassTable(F.disc), flavor)


def class_data(F: QuadraticField) -> tuple[int, ClassGroupStructure]:
    """(narrow class number, wide structure) from one class table."""
    table = _ClassTable(F.disc)
    return len(table.cycles), _group_structure(table, "wide")


def prime_form_raw(F: QuadraticField, ell: int) -> BinaryQuadraticForm:
    """The form (ell, b, c) with minimal b in [0, 2*ell), representing a
    prime ideal above ell."""
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    D = F.disc
    f = _prime_triple(D, ell)
    if f is None:
        raise InertPrimeError(f"{ell} is inert: no form of discriminant {D} represents it")
    return BinaryQuadraticForm(*f)


def prime_form(F: QuadraticField, ell: int) -> FormClass:
    return reduction_cycle(prime_form_raw(F, ell))


@dataclass(frozen=True)
class PolyaReport:
    ramified_primes: tuple[int, ...]
    ramification_indices: tuple[int, ...]
    polya_order: int
    h1_order: int


def polya_report(F: QuadraticField) -> PolyaReport:
    """Order of the subgroup of the wide class group generated by ramified
    prime classes, and the unit-cohomology order 2^s / that."""
    ram = tuple(sorted(factorize(F.disc)))
    group = class_group(F, "wide")
    ident = group.identity()
    gens = [group.rep(prime_form(F, p)) for p in ram]
    po = len(closure(gens, group.mul, ident))
    total = 2 ** len(ram)
    q, r = divmod(total, po)
    if r:
        raise ArithmeticError(
            f"2^s not divisible by the ramified subgroup order for disc {F.disc}"
        )
    return PolyaReport(
        ramified_primes=ram,
        ramification_indices=tuple(2 for _ in ram),
        polya_order=po,
        h1_order=q,
    )


def minkowski_class_number(F: QuadraticField) -> int:
    """Independent wide class number: enumerate primitive ideals of norm
    within the Minkowski bound and count their continued-fraction cycles.

    Ideals are kept as integer states (P, Q) for (P + sqrt(D))/Q; the cycle
    of that quadratic irrational under continued-fraction steps is a class
    invariant, and every ideal class contains a member below the bound.
    """
    D = F.disc
    s0 = D % 2
    c4 = (s0 * s0 - D) // 4
    a_max = isqrt(D // 4)  # largest a with 4a^2 <= D
    reps = set()
    for a in range(1, a_max + 1):
        for b in range(a):
            if (b * b + s0 * b + c4) % a == 0:
                reps.add(_ideal_cycle_canonical(D, 2 * b + s0, 2 * a))
    return len(reps)


def _ideal_cycle_canonical(D: int, P: int, Q: int) -> tuple[int, int]:
    """The least state of the cycle that the walk from (P, Q) enters.

    From 0 < Q < 2*sqrt(D) a step gives P' = x*Q - P in (sqrt(D) - Q,
    sqrt(D)) and Q' = (D - P'^2)/Q in (0, 2*sqrt(D)), so the walk from an
    ideal under the Minkowski bound (Q = 2a <= sqrt(D)) meets at most
    sum(Q for Q <= 2s + 1) = (2s + 1)(s + 1) states after its first, s =
    isqrt(D): the cap grows with D, as ideal cycles grow with the
    regulator.
    """
    s = isqrt(D)
    cap = (2 * s + 1) * (s + 1) + 1
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(states)
        states.append((P, Q))
        x = floor_quadsurd(P, Q, D)
        P = x * Q - P
        Q = (D - P * P) // Q
        if len(states) > cap:
            raise ArithmeticError("ideal cycle walk did not close")
    return min(states[seen[(P, Q)] :])
