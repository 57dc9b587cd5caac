"""Finite-group transfer (Verlagerung) engine and group-ring lattices.

Groups are explicit multiplication tables, validated on construction and
capped in size.  The transfer map is computed from its coset-product
definition, the restricted transfer on the quotient is tabulated together
with the divisibility hypothesis it is supposed to satisfy, and membership
in augmentation-ideal lattices is decided exactly by integer row reduction.
The module is a falsification instrument: vanishing verdicts are reported,
never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .intmath import closure, element_order, power

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
    associativity) on construction."""

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
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise GroupTableError("table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        return power(a, k, self.mul, self.identity)

    def order_of(self, a: int) -> int:
        return element_order(a, self.mul, self.identity, bound=self.n)

    def check_subgroup(self, H) -> frozenset[int]:
        H = frozenset(H)
        if not H or self.identity not in H:
            raise NotSubgroupError("subgroup must contain the identity")
        for a in H:
            if self.inverse[a] not in H:
                raise NotSubgroupError(f"subgroup not closed under inverse: {a}")
            for b in H:
                if self.mul(a, b) not in H:
                    raise NotSubgroupError(f"subgroup not closed: {a}*{b}")
        return H

    def is_normal(self, H) -> bool:
        H = frozenset(H)
        return all(
            self.mul(self.mul(g, h), self.inverse[g]) in H
            for g in range(self.n)
            for h in H
        )

    def derived_subgroup(self) -> frozenset[int]:
        return _derived_of_subgroup(self, range(self.n))

    def subgroup_closure(self, seed) -> frozenset[int]:
        return closure(seed, self.mul, self.identity)

    def coset_representatives(self, H) -> list[int]:
        """Left coset representatives, each the least element of its coset."""
        H = frozenset(H)
        seen = set()
        reps = []
        for g in range(self.n):
            if g in seen:
                continue
            reps.append(g)
            for h in H:
                seen.add(self.mul(g, h))
        return reps

    def all_subgroups(self) -> list[frozenset[int]]:
        found = {frozenset([self.identity])}
        frontier = [frozenset([self.identity])]
        while frontier:
            H = frontier.pop()
            for g in range(self.n):
                if g in H:
                    continue
                K = self.subgroup_closure(H | {g})
                if K not in found:
                    found.add(K)
                    frontier.append(K)
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
    def symmetric(cls, n: int, max_order: int = DEFAULT_MAX_ORDER):
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms
        ]
        g = cls(table, name=f"S{n}", max_order=max_order)
        g.element_labels = tuple(perms)
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


def transfer(G: FiniteGroup, H, g: int, reps: list[int] | None = None) -> int:
    """Transfer of g into H modulo the derived subgroup of H, by the coset
    product formula; returned as the least element of its H'-coset.

    The representative set may be supplied (any transversal works; the
    result is representative-independent, which the tests exercise).
    """
    Hset = G.check_subgroup(H)
    if reps is None:
        reps = G.coset_representatives(Hset)
    else:
        if len(reps) * len(Hset) != G.n:
            raise ValueError("not a transversal")
    coset_of = {}
    for r in reps:
        for h in Hset:
            coset_of[G.mul(r, h)] = r
    if len(coset_of) != G.n:
        raise ValueError("representatives do not cover the group")
    prod = G.identity
    for r in reps:
        gr = G.mul(g, r)
        factor = G.mul(G.inverse[coset_of[gr]], gr)
        if factor not in Hset:
            raise ArithmeticError("coset product factor left the subgroup")
        prod = G.mul(prod, factor)
    Hprime = _derived_of_subgroup(G, Hset)
    return min(G.mul(prod, h) for h in Hprime)


def _derived_of_subgroup(G: FiniteGroup, Hset: frozenset[int]) -> frozenset[int]:
    gens = {
        G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b]))
        for a in Hset
        for b in Hset
    }
    return closure(gens, G.mul, G.identity)


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
    Hset = G.check_subgroup(H)
    if not G.is_normal(Hset):
        raise NotNormalError("H must be normal")
    if not G.derived_subgroup() <= Hset:
        raise CommutatorNotContainedError("derived subgroup must lie in H")
    Hprime = _derived_of_subgroup(G, Hset)
    identity_coset = min(G.mul(G.identity, h) for h in Hprime)
    well_defined = all(transfer(G, Hset, h) == identity_coset for h in Hset)
    index = G.n // len(Hset)
    reps = G.coset_representatives(Hset)
    images = tuple((r, transfer(G, Hset, r)) for r in reps)
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
    def basis(cls, G: FiniteGroup, g: int) -> "GroupRingElement":
        return cls(G, tuple(1 if i == g else 0 for i in range(G.n)))

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


LATTICE_KINDS = ("IG2", "IGIH", "IH+IGIH")


def _lattice(G: FiniteGroup, Hset: frozenset[int], kind: str) -> _IntegerLattice:
    lat = _IntegerLattice(G.n)
    nontrivial_G = [g for g in range(G.n) if g != G.identity]
    nontrivial_H = [h for h in sorted(Hset) if h != G.identity]
    if kind == "IG2":
        pairs = ((a, b) for a in nontrivial_G for b in nontrivial_G)
    elif kind == "IGIH":
        pairs = ((a, b) for a in nontrivial_G for b in nontrivial_H)
    elif kind == "IH+IGIH":
        pairs = ((a, b) for a in nontrivial_G for b in nontrivial_H)
        for h in nontrivial_H:
            lat.insert(GroupRingElement.delta(G, h).coeffs)
    else:
        raise ValueError(f"unknown lattice kind {kind!r}; use one of {LATTICE_KINDS}")
    for a, b in pairs:
        prod = GroupRingElement.delta(G, a) * GroupRingElement.delta(G, b)
        lat.insert(prod.coeffs)
    return lat


def augmentation_membership(
    G: FiniteGroup, H, x: GroupRingElement, lattice_kind: str
) -> bool:
    """Exact membership of x in I_G^2, I_G*I_H or I_H + I_G*I_H."""
    Hset = G.check_subgroup(H)
    return _lattice(G, Hset, lattice_kind).contains(x.coeffs)


@dataclass(frozen=True)
class DiagramReport:
    group_name: str
    subgroup: tuple[int, ...]
    commutes: bool
    violations: tuple[int, ...]  # coset representatives where it fails


def diagram_check(G: FiniteGroup, H) -> DiagramReport:
    """For every coset representative g: the norm-multiplied coboundary of g
    agrees with the coboundary of its transfer, modulo I_G*I_H.

    The congruence is checked on representatives, so the report is
    meaningful even on instances where the vanishing hypothesis fails.
    """
    Hset = G.check_subgroup(H)
    if not G.is_normal(Hset):
        raise NotNormalError("H must be normal")
    if not G.derived_subgroup() <= Hset:
        raise CommutatorNotContainedError("derived subgroup must lie in H")
    lat = _lattice(G, Hset, "IGIH")
    reps = G.coset_representatives(Hset)
    norm_elt = GroupRingElement(G, tuple(1 if i in reps else 0 for i in range(G.n)))
    violations = []
    for g in reps:
        lhs = GroupRingElement.delta(G, g) * norm_elt
        rhs = GroupRingElement.delta(G, transfer(G, Hset, g))
        if not lat.contains((lhs - rhs).coeffs):
            violations.append(g)
    return DiagramReport(
        group_name=G.name,
        subgroup=tuple(sorted(Hset)),
        commutes=not violations,
        violations=tuple(violations),
    )
