"""Finite-group transfer (Verlagerung) engine and augmentation ideals.

Groups are explicit multiplication tables, validated on construction and
capped in size.  Nothing in the set-up of a group or a subgroup is cubic:
associativity is checked by Light's test on a generating set (Clifford-
Preston, *The Algebraic Theory of Semigroups*, vol. 1), ``all_subgroups``
finds each subgroup once, along its greedy generating tuple (McKay, J.
Algorithms 26, 1998), walking each join <H, g> from H*g and stopping it at
the first element outside H below g, and the derived subgroup H' is closed
from the commutators of H with H itself.  Powers are read from
the ``intmath.cycle`` e, a, a^2, ... of each element, walked once.

The transfer map is a homomorphism that does not depend on the
transversal (Isaacs, *Finite Group Theory*, ch. 5), so its coset-product
definition runs on the generators of G alone, and one walk of G over the
generators extends it, checking every edge of the walk; the restricted
transfer on the quotient is tabulated together with the divisibility
hypothesis it is supposed to satisfy, and membership in the augmentation
ideals I_G*I_H and I_H + I_G*I_H is decided exactly through the isomorphism
ZG*I_H / I_G*I_H = I_H/I_H^2 = H/H', which holds because ZG is free as a
right ZH-module (Brown, *Cohomology of Groups*, GTM 87, ch. II-III); its
case H = G, I_G/I_G^2 = G/G', decides membership in I_G^2.  The
module is a falsification instrument: vanishing verdicts are reported,
never assumed.

What the transfer needs about H (the checked H, least coset elements as
representatives, the coset map, the factor r(x)^-1 x of every x, with r(x)
the greatest element of xH, the least element of xH' for every x, and
whether H is normal) is a ``TransferContext``, computed once.  The context
also keeps the transfer image of every g once the first is asked for, so
each (G, H) pays for its coset products once per generator.
``G.context(H)`` keeps one in a one-slot cache, replaced when H changes,
and recognises its own H by identity: callers take the subgroups one at a
time, so one slot saves all the repeated work and holds the memory of a
single context.  Membership reads the same context: O(n) table lookups,
no integer lattice.  ``diagram_check`` takes each representative's image
in H/H' as one product of [G:H] factors times a base that all
representatives share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .intmath import closure, cycle

DEFAULT_MAX_ORDER = 64


class NotSubgroupError(ValueError):
    pass


class NotNormalError(ValueError):
    pass


class CommutatorNotContainedError(ValueError):
    """The derived subgroup is not contained in H."""


class GroupTableError(ValueError):
    """The multiplication table is not a group (or exceeds the size cap)."""


class FiniteGroup:
    """A finite group given by an explicit multiplication table on indices
    0..n-1; the table is fully validated (identity, inverses,
    associativity) on construction, associativity by Light's test: for s in
    a greedy generating set only, in n^2 lookups per generator."""

    def __init__(self, table, name: str = "G", max_order: int = DEFAULT_MAX_ORDER):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or n > max_order:
            raise GroupTableError(f"order {n} outside 1..{max_order}")
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupTableError("table is not square over valid indices")
        self.table = table
        self.n = n
        self.name = name
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupTableError("no identity element")
        self.identity = ident
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if table[x][y] == ident:
                    inv[x] = y
                    break
            if inv[x] is None or table[inv[x]][x] != ident:
                raise GroupTableError(f"element {x} has no two-sided inverse")
        self.inverse = tuple(inv)
        # Light's test: the s with (xs)y = x(sy) for all x, y are closed
        # under products, and right products of the generators reach every
        # element, so checking s in the generators alone is exact
        self._gens = _generating_set(self)
        for s in self._gens:
            row_s = table[s]
            for x in range(n):
                row_x = table[x]
                if table[row_x[s]] != tuple(map(row_x.__getitem__, row_s)):
                    raise GroupTableError("table is not associative")
        self._derived = None
        self._context = None
        self._cycles = [None] * n

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k, read from the ``cycle`` e, a, a^2, ... of
        a, walked once and kept: the cycles of all n elements hold at most
        n^2 entries."""
        powers = self._cycles[a]
        if powers is None:
            powers = self._cycles[a] = cycle(a, self.mul, self.identity)
        return powers[k % len(powers)]

    def check_subgroup(self, H) -> frozenset[int]:
        H = frozenset(H)
        for a in H:
            if not 0 <= a < self.n:
                raise NotSubgroupError(f"element {a} outside 0..{self.n - 1}")
        if self.identity not in H:
            raise NotSubgroupError("subgroup must contain the identity")
        for a in H:
            if self.inverse[a] not in H:
                raise NotSubgroupError(f"subgroup not closed under inverse: {a}")
            row = self.table[a]
            for b in H:
                if row[b] not in H:
                    raise NotSubgroupError(f"subgroup not closed: {a}*{b}")
        return H

    def derived_subgroup(self) -> frozenset[int]:
        if self._derived is None:
            self._derived = _derived_of_subgroup(self, range(self.n), self._gens)
        return self._derived

    def context(self, H) -> TransferContext:
        """The transfer context of H, from a one-slot cache that the next
        different H replaces.  The context's own Hset is recognised by
        identity, without comparing sets."""
        ctx = self._context
        if ctx is not None and H is ctx.Hset:
            return ctx
        Hset = frozenset(H)
        if ctx is None or ctx.Hset != Hset:
            Hset = self.check_subgroup(Hset)
            least = self._coset_minima(Hset)
            reps = tuple(x for x in range(self.n) if least[x] == x)
            greatest = dict(zip(least, range(self.n)))  # the last x of each coset
            mod_derived = self._coset_minima(_derived_of_subgroup(self, Hset, Hset))
            # g = rk with k in H conjugates H as r does: n lookups decide it
            table, inverse = self.table, self.inverse
            normal = all(table[table[r][h]][inverse[r]] in Hset for r in reps for h in Hset)
            ctx = self._context = TransferContext(
                Hset,
                reps,
                tuple(least),
                tuple(table[inverse[greatest[r]]][x] for x, r in enumerate(least)),
                tuple(mod_derived),
                normal,
            )
        return ctx

    def subgroup_closure(self, seed, base=None, floor=None) -> frozenset[int] | None:
        """<seed>; ``base``, if given, is the subgroup generated by every
        element of the tuple ``seed`` but the last.  With ``floor``, None
        as soon as an element of <seed> outside ``base`` is below it."""
        return closure(seed, self.mul, self.identity, base, floor)

    def _coset_minima(self, K) -> list[int]:
        """For every x, the least element of the left coset xK of the
        subgroup K."""
        least = [None] * self.n
        for x in range(self.n):
            if least[x] is None:
                row = self.table[x]
                for k in K:
                    least[row[k]] = x
        return least

    def all_subgroups(self) -> list[frozenset[int]]:
        """Every subgroup once, from its greedy generating tuple: each gi
        is the least element outside <g1, ..., g(i-1)>, as in
        ``_generating_set``.  For H with tuple gens, K = <H, g> has tuple
        gens + (g,) exactly when g > gens[-1] is the least element of K
        outside H, as each element of K outside H then lies above each gi.
        An element of gH below g lies in K outside H, so g is the least of
        gH, and the walk of K stops at any element outside H below g."""
        trivial = frozenset([self.identity])
        found = [trivial]
        frontier = [(trivial, ())]
        while frontier:
            H, gens = frontier.pop()
            least = self._coset_minima(H)
            for g in range(gens[-1] + 1 if gens else 0, self.n):
                if least[g] != g or g in H:
                    continue
                K = self.subgroup_closure(gens + (g,), H, floor=g)
                if K is not None:
                    found.append(K)
                    frontier.append((K, gens + (g,)))
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    @classmethod
    def cyclic_product(cls, orders, name: str | None = None, max_order: int = DEFAULT_MAX_ORDER):
        """Direct product of cyclic groups of the given orders."""
        orders = tuple(orders)
        if not orders or any(o < 1 for o in orders):
            raise GroupTableError("cyclic factors must be positive")
        elems = list(itertools.product(*(range(o) for o in orders)))
        index = {e: i for i, e in enumerate(elems)}
        table = [
            [
                index[tuple((x + y) % o for x, y, o in zip(a, b, orders))]
                for b in elems
            ]
            for a in elems
        ]
        label = name or "x".join(f"C{o}" for o in orders)
        g = cls(table, name=label, max_order=max_order)
        g.element_labels = tuple(elems)
        return g

    @classmethod
    def from_table_text(cls, text: str, name: str = "G", max_order: int = DEFAULT_MAX_ORDER):
        """Parse the text table format: one row per element, space-separated
        element indices."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.split()])
        return cls(rows, name=name, max_order=max_order)


@dataclass(frozen=True)
class TransferContext:
    """What the transfer needs about one subgroup H of G, and the transfer
    images of all of G once the first one is asked for."""

    Hset: frozenset[int]
    reps: tuple[int, ...]  # one representative per left coset of H
    coset_of: tuple[int, ...]  # coset_of[x]: the representative of xH
    factors: tuple[int, ...]  # factors[x]: r(x)^-1 x, r(x) the greatest element of xH
    mod_derived: tuple[int, ...]  # mod_derived[x]: the least element of xH'
    normal: bool  # whether H is normal in G
    images: list[int] = field(default_factory=list, compare=False, repr=False)


def transfer(G: FiniteGroup, H, g: int) -> int:
    """Transfer of g into H modulo the derived subgroup of H, returned as
    the least element of its H'-coset.  The first call on a context takes
    the coset products of the generators of G alone and extends them by one
    walk from the identity, image(xs) = image(x)*image(s), checking every
    edge into an element already reached; later calls read ``images``.
    """
    if not 0 <= g < G.n:
        raise ValueError(f"element {g} outside 0..{G.n - 1}")
    ctx = G.context(H)
    if not ctx.images:
        table, mod_derived = G.table, ctx.mod_derived
        gens = [(s, _coset_product(G, ctx, s)) for s in G._gens]
        images = [None] * G.n
        images[G.identity] = mod_derived[G.identity]
        walk = [G.identity]
        for x in walk:  # the walk grows as it goes
            row, image_row = table[x], table[images[x]]
            for s, image_s in gens:
                y, image = row[s], mod_derived[image_row[image_s]]
                if images[y] is None:
                    images[y] = image
                    walk.append(y)
                elif images[y] != image:
                    raise ArithmeticError("transfer is not a homomorphism on the walk")
        ctx.images.extend(images)
    return ctx.images[g]


def _coset_product(G: FiniteGroup, ctx: TransferContext, g: int) -> int:
    """The transfer of g from its coset-product definition (Isaacs,
    *Finite Group Theory*, ch. 5), over the least coset elements."""
    table, inverse, coset_of, Hset = G.table, G.inverse, ctx.coset_of, ctx.Hset
    row, prod = table[g], G.identity
    for r in ctx.reps:
        gr = row[r]
        factor = table[inverse[coset_of[gr]]][gr]
        if factor not in Hset:
            raise ArithmeticError("coset product factor left the subgroup")
        prod = table[prod][factor]
    return ctx.mod_derived[prod]


def _generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Generators of G, taken greedily: the least element not yet among the
    products of the earlier ones."""
    gens, span = (), {G.identity}
    for x in range(G.n):
        if x not in span:
            gens += (x,)
            span = closure(gens, G.mul, G.identity, base=span)
    return gens


def _derived_of_subgroup(G: FiniteGroup, Hset, gens) -> frozenset[int]:
    """H' as the closure of the commutators [a, s] for a in H and s in a
    generating set S of H.  By [xy, s] = x[y, s]x^-1 [x, s] the closure N is
    normal in H, and S is central modulo N, so H/N is abelian and N = H'."""
    table, inverse = G.table, G.inverse
    commutators = {
        table[table[a][s]][table[inverse[a]][inverse[s]]] for a in Hset for s in gens
    }
    return closure(commutators, G.mul, G.identity)


def _quotient_context(G: FiniteGroup, H) -> TransferContext:
    """The context of H, once H is checked normal and containing G'."""
    ctx = G.context(H)
    if not ctx.normal:
        raise NotNormalError("H must be normal")
    if not G.derived_subgroup() <= ctx.Hset:
        raise CommutatorNotContainedError("derived subgroup must lie in H")
    return ctx


@dataclass(frozen=True)
class TransferResult:
    group_name: str
    subgroup: tuple[int, ...]
    images: tuple[tuple[int, int], ...]  # (coset representative, image in H/H')
    well_defined_on_quotient: bool
    hypothesis_holds: bool  # |H| divides [G:H]
    vanishes: bool

    @property
    def vanishing_discrepancy(self) -> bool:
        """Hypothesis holds and yet the restricted transfer does not vanish."""
        return self.well_defined_on_quotient and self.hypothesis_holds and not self.vanishes


def restricted_transfer(G: FiniteGroup, H) -> TransferResult:
    """Tabulate the transfer on the quotient by H and report the
    (hypothesis, vanishing) verdict for the vanishing claim."""
    ctx = _quotient_context(G, H)
    Hset = ctx.Hset
    identity_coset = ctx.mod_derived[G.identity]
    well_defined = all(transfer(G, Hset, h) == identity_coset for h in Hset)
    index = G.n // len(Hset)
    images = tuple((r, transfer(G, Hset, r)) for r in ctx.reps)
    vanishes = well_defined and all(img == identity_coset for _, img in images)
    return TransferResult(
        group_name=G.name,
        subgroup=tuple(sorted(Hset)),
        images=images,
        well_defined_on_quotient=well_defined,
        hypothesis_holds=index % len(Hset) == 0,
        vanishes=vanishes,
    )


# --- group ring and augmentation-ideal lattices ---------------------------


class GroupRingElement:
    """Integer vector indexed by group elements."""

    __slots__ = ("G", "coeffs")

    def __init__(self, G: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != G.n:
            raise ValueError("coefficient vector has wrong length")
        self.G = G
        self.coeffs = coeffs

    @classmethod
    def delta(cls, G: FiniteGroup, g: int) -> "GroupRingElement":
        """g - 1, the group-ring coboundary of g."""
        v = [0] * G.n
        v[g] += 1
        v[G.identity] -= 1
        return cls(G, v)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.G, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.G, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        G = self.G
        out = [0] * G.n
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                if cb:
                    out[G.mul(a, b)] += ca * cb
        return GroupRingElement(G, out)

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.G is other.G and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


LATTICE_KINDS = ("IG2", "IGIH", "IH+IGIH")


def augmentation_membership(
    G: FiniteGroup, H, x: GroupRingElement, lattice_kind: str
) -> bool:
    """Exact membership of x in I_G^2, I_G*I_H or I_H + I_G*I_H.

    x = sum of c*g lies in I_H + I_G*I_H = ZG*I_H, the kernel of ZG ->
    Z[G/H], exactly when its coefficients sum to 0 on every left coset gH,
    and then maps to the product of the context's factors (r(g)^-1 g)^c in
    ZG*I_H / I_G*I_H = H/H'; it lies in I_G*I_H when that image is trivial.
    """
    if x.G is not G:
        raise ValueError("x is not in the group ring of G")
    ctx = G.context(H)
    if lattice_kind not in LATTICE_KINDS:
        raise ValueError(f"unknown lattice kind {lattice_kind!r}; use one of {LATTICE_KINDS}")
    table, prod = G.table, G.identity
    if lattice_kind == "IG2":
        # I_G/I_G^2 = G/G' maps the sum of c*x in I_G to the product of x^c
        for g, c in enumerate(x.coeffs):
            if c:
                prod = table[prod][G.power(g, c)]
        return x.augmentation() == 0 and prod in G.derived_subgroup()
    sums = [0] * G.n  # by coset representative
    for g, c in enumerate(x.coeffs):
        if c:
            sums[ctx.coset_of[g]] += c
            prod = table[prod][G.power(ctx.factors[g], c)]
    if any(sums):
        return False
    return lattice_kind == "IH+IGIH" or ctx.mod_derived[prod] == ctx.mod_derived[G.identity]


@dataclass(frozen=True)
class DiagramReport:
    group_name: str
    subgroup: tuple[int, ...]
    commutes: bool
    violations: tuple[int, ...]  # coset representatives where it fails


def diagram_check(G: FiniteGroup, H) -> DiagramReport:
    """For every coset representative g: the norm-multiplied coboundary of g
    agrees with the coboundary of its transfer t, modulo I_G*I_H.

    v = (g - 1)*sum(reps) - (t - 1) lies in I_H + I_G*I_H when the g*r meet
    every coset once and t lies in H; its image in H/H' is then the product
    of the factors of the g*r, a base from -sum(reps) + 1 shared by all g,
    and t's factor inverted.  The factors use the greatest element of each
    coset, so the check compares the transfer with its product over a
    second transversal.  The congruence is checked on representatives, so
    the report is meaningful even where the vanishing hypothesis fails.
    """
    ctx = _quotient_context(G, H)
    Hset, reps, table, factors = ctx.Hset, ctx.reps, G.table, ctx.factors
    coset_of, mod_derived = ctx.coset_of, ctx.mod_derived
    base = factors[G.identity]
    for r in reps:
        base = table[base][G.inverse[factors[r]]]
    violations = []
    for g in reps:
        row, prod = table[g], base
        for r in reps:
            prod = table[prod][factors[row[r]]]
        t = transfer(G, Hset, g)
        meets_every_coset = len({coset_of[row[r]] for r in reps}) == len(reps)
        if not (meets_every_coset and t in Hset and mod_derived[prod] == mod_derived[factors[t]]):
            violations.append(g)
    return DiagramReport(
        group_name=G.name,
        subgroup=tuple(sorted(Hset)),
        commutes=not violations,
        violations=tuple(violations),
    )
