"""Class groups of real quadratic fields via indefinite binary quadratic forms.

Reduction cycles decide equivalence, Gauss/Dirichlet composition gives the
group law, and the wide group is the quotient of the narrow one by the class
of a form representing -1.  A separate ideal-cycle enumeration under the
Minkowski bound provides an independent class-number oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .intmath import (
    closure,
    divisors,
    element_order,
    factorize,
    floor_quadsurd,
    is_prime,
    is_square,
    power,
)
from .quadfield import NotPrimeError, QuadraticField

_MAX_REDUCE_STEPS = 10_000


class ImprimitiveError(ValueError):
    """gcd(a, b, c) > 1."""


class SquareDiscriminantError(ValueError):
    """Discriminant is a perfect square (or not positive)."""


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

    def is_reduced(self) -> bool:
        """|sqrt(disc) - 2|a|| < b < sqrt(disc), by integer comparisons."""
        D = self.disc
        b = self.b
        if b <= 0 or b * b >= D:
            return False
        t = 2 * abs(self.a) - b
        if t >= 0 and t * t >= D:
            return False
        s = 2 * abs(self.a) + b
        return s * s > D

    def rho(self) -> "BinaryQuadraticForm":
        """One reduction step (right neighbour)."""
        D = self.disc
        b, c = self.b, self.c
        ac = abs(c)
        if ac * ac > D:
            r = (-b) % (2 * ac)
            if r > ac:
                r -= 2 * ac
        else:
            s = isqrt(D)
            r = s - (s + b) % (2 * ac)
        return BinaryQuadraticForm(c, r, (r * r - D) // (4 * c))

    def inverse_form(self) -> "BinaryQuadraticForm":
        return BinaryQuadraticForm(self.a, -self.b, self.c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _validate(f: BinaryQuadraticForm) -> None:
    D = f.disc
    if D <= 0 or is_square(D):
        raise SquareDiscriminantError(f"discriminant {D} is not positive non-square")
    if not f.is_primitive():
        raise ImprimitiveError(f"{f.as_tuple()} is imprimitive")


def _canonical_key(f: BinaryQuadraticForm) -> tuple[int, int, int, int]:
    return (abs(f.a), f.a, f.b, f.c)


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
        composed = _compose_forms(self.canonical, other.canonical)
        return reduction_cycle(composed)

    def inverse(self) -> "FormClass":
        return reduction_cycle(self.canonical.inverse_form())


def reduction_cycle(f: BinaryQuadraticForm) -> FormClass:
    """Canonical representative of the proper equivalence class of f.

    Two forms are equivalent exactly when their canonical representatives
    agree: the rho operator permutes the reduced forms of a discriminant,
    and its orbits are the classes.
    """
    _validate(f)
    g = f
    for _ in range(_MAX_REDUCE_STEPS):
        if g.is_reduced():
            break
        g = g.rho()
    else:
        raise ArithmeticError(f"reduction did not terminate for {f.as_tuple()}")
    return _cycle_class(_rho_cycle(g))


def _rho_cycle(g: BinaryQuadraticForm) -> list[BinaryQuadraticForm]:
    """The rho-orbit of the reduced form g, starting at g."""
    cycle = [g]
    h = g.rho()
    while h != g:
        cycle.append(h)
        h = h.rho()
        if len(cycle) > _MAX_REDUCE_STEPS:
            raise ArithmeticError("cycle walk did not close")
    return cycle


def _cycle_class(cycle: list[BinaryQuadraticForm]) -> FormClass:
    return FormClass(canonical=min(cycle, key=_canonical_key), cycle_length=len(cycle))


def principal_form(D: int) -> BinaryQuadraticForm:
    s = D % 2
    return BinaryQuadraticForm(1, s, (s * s - D) // 4)


def principal_class(D: int) -> FormClass:
    return reduction_cycle(principal_form(D))


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) with solutions x0 + step*Z."""
    g = gcd(a, m)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    mm = m // g
    x0 = (b // g) * pow(a // g, -1, mm) % mm
    return x0, mm


def _compose_forms(
    f1: BinaryQuadraticForm, f2: BinaryQuadraticForm
) -> BinaryQuadraticForm:
    """Dirichlet composition of two primitive forms of equal discriminant."""
    a1, b1, c1 = f1.as_tuple()
    a2, b2, c2 = f2.as_tuple()
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
    return BinaryQuadraticForm(s * t, w * u - (k * t + ell * s), k * ell - w * m)


def all_reduced_forms(D: int) -> list[BinaryQuadraticForm]:
    """Every reduced primitive form of positive non-square discriminant D."""
    if D <= 0 or is_square(D):
        raise SquareDiscriminantError(f"{D} is not a valid indefinite discriminant")
    out = []
    s = isqrt(D)
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        m = (D - b * b) // 4
        for a in divisors(m):
            c = -(m // a)
            for f in (BinaryQuadraticForm(a, b, c), BinaryQuadraticForm(-a, b, -c)):
                if f.is_reduced() and f.is_primitive():
                    out.append(f)
    return out


def _narrow_classes(D: int) -> list[FormClass]:
    forms = set(all_reduced_forms(D))
    classes = []
    while forms:
        cycle = _rho_cycle(forms.pop())
        forms.difference_update(cycle)
        classes.append(_cycle_class(cycle))
    return sorted(classes, key=_class_key)


def sign_class(D: int) -> FormClass:
    """Class of a form representing -1; principal exactly when h+ = h."""
    s = D % 2
    return reduction_cycle(BinaryQuadraticForm(-1, s, (D - s * s) // 4))


def _class_key(c: FormClass) -> tuple[int, int, int, int]:
    return _canonical_key(c.canonical)


def wide_rep(cls: FormClass, J: FormClass) -> FormClass:
    """Representative of cls in the wide group, the quotient of the narrow
    group by the sign class J: the lesser of cls and cls*J."""
    return min(cls, cls * J, key=_class_key)


@dataclass(frozen=True)
class ClassGroupStructure:
    flavor: str  # "narrow" | "wide"
    h: int
    elementary_divisors: tuple[int, ...]
    generators: tuple[FormClass, ...]
    elements: tuple[FormClass, ...]
    _sign_class: FormClass | None = None

    def rep(self, cls: FormClass) -> FormClass:
        """Canonical representative of cls inside this group's element set."""
        if self.flavor == "narrow" or self._sign_class is None:
            return cls
        return wide_rep(cls, self._sign_class)

    def mul(self, x: FormClass, y: FormClass) -> FormClass:
        return self.rep(x * y)

    def identity(self) -> FormClass:
        D = self.elements[0].disc
        return self.rep(principal_class(D))

    def order_of(self, cls: FormClass) -> int:
        return element_order(self.rep(cls), self.mul, self.identity(), bound=self.h)


def _abelian_basis(elements, mul, identity):
    """Basis (generators with orders) of a finite abelian group, exactly.

    Works on any hashable element list with a multiplication callback;
    intended for desk-scale orders.
    """
    n = len(elements)
    if n == 1:
        return []
    orders = {x: element_order(x, mul, identity, bound=n) for x in elements}
    basis = []
    ordering = sorted(elements, key=lambda x: (-orders[x], repr(x)))
    x = ordering[0]  # maximal order = exponent of the group
    m = orders[x]
    basis.append((x, m))
    if m == n:
        return basis
    # quotient by <x>, recurse, and lift generators back
    cyc = {identity: 0}
    acc = identity
    for k in range(1, m):
        acc = mul(acc, x)
        cyc[acc] = k
    coset_rep = {}
    for y in elements:
        orbit = sorted((mul(y, power(x, k, mul, identity)) for k in range(m)), key=repr)
        coset_rep[y] = orbit[0]
    quotient = sorted(set(coset_rep.values()), key=repr)

    def qmul(u, v):
        return coset_rep[mul(u, v)]

    for gen_bar, order_bar in _abelian_basis(quotient, qmul, coset_rep[identity]):
        t = cyc[power(gen_bar, order_bar, mul, identity)]
        if t % order_bar:
            raise ArithmeticError("abelian basis lifting failed")
        lifted = mul(gen_bar, power(x, (m - t // order_bar) % m, mul, identity))
        basis.append((lifted, order_bar))
    return basis


def _structure(elements: list[FormClass], mul, identity) -> tuple[tuple[int, ...], tuple[FormClass, ...]]:
    basis = _abelian_basis(elements, mul, identity)
    # merge into an elementary-divisor chain d1 | d2 | ... (ascending)
    primary: dict[int, list[tuple[int, FormClass]]] = {}
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


def _wide_structure(D: int, narrow: list[FormClass]) -> ClassGroupStructure:
    ident = principal_class(D)
    J = sign_class(D)
    if J == ident:
        elements = narrow
        divs, gens = _structure(elements, lambda x, y: x * y, ident)
    else:
        elements = sorted({wide_rep(c, J) for c in narrow}, key=_class_key)
        divs, gens = _structure(
            elements, lambda x, y: wide_rep(x * y, J), wide_rep(ident, J)
        )
    return ClassGroupStructure("wide", len(elements), divs, gens, tuple(elements), J)


def class_group(F: QuadraticField, flavor: str = "wide") -> ClassGroupStructure:
    """Class group of the field, narrow or wide.

    The narrow group is enumerated from all reduced forms of the field
    discriminant; the wide group is its quotient by the class of a form
    representing -1 (trivial exactly when the fundamental unit has norm -1).
    """
    if flavor not in ("narrow", "wide"):
        raise ValueError("flavor must be 'narrow' or 'wide'")
    D = F.disc
    narrow = _narrow_classes(D)
    if flavor == "narrow":
        ident = principal_class(D)
        divs, gens = _structure(narrow, lambda x, y: x * y, ident)
        return ClassGroupStructure("narrow", len(narrow), divs, gens, tuple(narrow))
    return _wide_structure(D, narrow)


def class_data(F: QuadraticField) -> tuple[int, ClassGroupStructure]:
    """(narrow class number, wide structure) with one forms enumeration."""
    narrow = _narrow_classes(F.disc)
    return len(narrow), _wide_structure(F.disc, narrow)


def prime_form_raw(F: QuadraticField, ell: int) -> BinaryQuadraticForm:
    """The form (ell, b, c) with minimal b in [0, 2*ell), representing a
    prime ideal above ell."""
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    D = F.disc
    for b in range(0, 2 * ell):
        if (b * b - D) % (4 * ell) == 0:
            f = BinaryQuadraticForm(ell, b, (b * b - D) // (4 * ell))
            if f.is_primitive():
                return f
    raise InertPrimeError(f"{ell} is inert: no form of discriminant {D} represents it")


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


def h1_units_quadratic(unit_norm: int) -> int:
    """|H^1| of the unit module for the degree-2 layer, from the cocycle
    description of units {+-eps^k}: 4 when the unit norm is +1, else 2."""
    return 4 if unit_norm == 1 else 2


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
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(states)
        states.append((P, Q))
        x = floor_quadsurd(P, Q, D)
        P = x * Q - P
        Q = (D - P * P) // Q
        if len(states) > _MAX_REDUCE_STEPS:
            raise ArithmeticError("ideal cycle walk did not close")
    return min(states[seen[(P, Q)] :])
