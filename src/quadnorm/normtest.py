"""Local norm tests at tamely ramified conductors and the unit-norm index.

For the cyclic compositum over the quadratic field, the extension is
totally and tamely ramified at each prime above the conductor q, so a unit
is a local norm there exactly when its residue image is a p^n-th power,
i.e. when image^((q^f - 1)/p^n) = 1.  The order of that power, the local
order, divides p^n and takes at most n p-th powers to find, with no
factoring of p^n.  The Hasse norm theorem then makes
the least power of the fundamental unit that is a norm of a field element
equal to the lcm of the local orders.

The index computed here is the field-norm index: it divides the index of
norms of units, and the two are distinguished by the ``caveat`` flag on
reports (deciding the unit-norm index exactly would need the unit group of
the sextic compositum).

At an inert conductor the index is always 1 (``inert_conductor_index``
proves it).  ``detect_p_divisibility`` keeps the inert conductors among
the admissible ones, so it cannot return a witness; only the first builds
a descriptor and a unit, to check the lemma against the residue test.
``norm_index`` and ``verify_class_order`` keep the full residue
computation, and a conductor dividing the field discriminant has one
refusal, ``quadfield.RamifiedPrimeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclicext import (
    ClassPrimeNotSplitError,
    CyclicExtensionDescriptor,
    check_conductor,
    check_degree,
    cyclic_descriptor,
    properness_report,
)
from .formclass import class_group, prime_form
from .intmath import kronecker, p_part, p_power_order, primes_up_to
from .quadfield import (
    FundamentalUnit,
    QuadInteger,
    QuadraticField,
    RamifiedPrimeError,
    ResidueFieldElement,
    SplittingType,
    fundamental_unit,
    reduce_mod_prime,
    splitting_type,
)


class NoAdmissibleConductorError(ValueError):
    pass


@dataclass(frozen=True)
class LocalNormVerdict:
    prime_label: str
    residue_degree: int
    exponent_used: int
    power_value: ResidueFieldElement
    is_norm: bool
    local_order: int


@dataclass(frozen=True)
class NormIndexReport:
    d: int
    q: int
    p: int
    n: int
    verdicts: tuple[LocalNormVerdict, ...]
    index: int
    ratio_p_part: int
    t: int  # ramified archimedean places; always 0 for odd-degree layers
    caveat: bool  # field-norm semantics, see module docstring
    c_estimate: str  # [Z^x : Norm(units)] for the full tower: "1" or "1 or 2"


def local_norm_test(
    F: QuadraticField,
    u: QuadInteger,
    desc: CyclicExtensionDescriptor,
    root: int | None = None,
) -> LocalNormVerdict:
    """Is the unit u a norm everywhere locally at the chosen prime above q?

    ``root`` selects the prime when q splits (a square root of d mod q);
    for inert q there is a single prime and root must be None.  The
    residue map refuses a ramified q, and its image carries a root exactly
    when q splits, which gives the residue degree f.
    """
    if abs(u.norm()) != 1:
        raise ValueError("local norm test expects a unit")
    q, e = desc.q, desc.degree
    image = reduce_mod_prime(F, u, q, root)
    f = 1 if image.root is not None else 2
    exponent = (q**f - 1) // e
    power = image**exponent
    order = p_power_order(power, desc.p, desc.n, lambda x: x**desc.p, image**0)
    label = f"{q}" if f == 2 else f"{q}@root={image.root}"
    return LocalNormVerdict(
        prime_label=label,
        residue_degree=f,
        exponent_used=exponent,
        power_value=power,
        is_norm=power.is_one(),
        local_order=order,
    )


def norm_index(
    F: QuadraticField,
    desc: CyclicExtensionDescriptor,
    *,
    unit: FundamentalUnit | None = None,
) -> NormIndexReport:
    """Least k such that eps^k is a norm of a field element from the
    compositum, as the lcm of local orders at the primes above q.

    ``unit`` passes in the field's fundamental unit when the caller has
    already computed it."""
    if F.disc % desc.q == 0:  # refused before the unit is computed
        raise RamifiedPrimeError(f"conductor {desc.q} ramifies in disc {F.disc}")
    eps = fundamental_unit(F) if unit is None else unit
    if eps.value.d != F.d:
        raise ValueError(f"unit of d={eps.value.d} passed for d={F.d}")
    # one residue map decides the splitting; it takes the smaller root when q splits
    first = local_norm_test(F, eps.value, desc)
    root = first.power_value.root
    others = () if root is None else (local_norm_test(F, eps.value, desc, desc.q - root),)
    verdicts = (first,) + others
    index = math.lcm(*(v.local_order for v in verdicts))
    return NormIndexReport(
        d=F.d,
        q=desc.q,
        p=desc.p,
        n=desc.n,
        verdicts=verdicts,
        index=index,
        ratio_p_part=p_part(index, desc.p),
        t=0,
        caveat=True,
        c_estimate="1" if eps.unit_norm == -1 else "1 or 2",
    )


@dataclass(frozen=True)
class ConductorRecord:
    q: int
    proper: bool
    index: int | None


@dataclass(frozen=True)
class ClassOrderComparison:
    d: int
    ell: int
    p: int
    n: int
    class_order: int
    class_order_p_part: int
    records: tuple[ConductorRecord, ...]
    agreement: bool  # p-part of the order == index at every proper conductor
    discrepancies: tuple[tuple[int, int], ...]  # (q, index) disagreeing


# Largest qmax of a conductor search.  The sieve behind it keeps a byte per
# integer and a list of the primes: ``primes_up_to(10**7)`` peaked at 37 MB
# under tracemalloc, growing linearly in qmax, and ``detect --qmax
# 10000000`` took 2.8 s on a 2-core host.
MAX_QMAX = 10_000_000


def check_qmax(qmax: int) -> None:
    """Refuse a conductor search below 0 or above MAX_QMAX before anything
    is sieved."""
    if qmax < 0:
        raise ValueError(f"qmax {qmax} is negative")
    if qmax > MAX_QMAX:
        raise ValueError(f"qmax {qmax} is above the conductor-search ceiling {MAX_QMAX}")


@lru_cache(maxsize=8)
def _sieved_primes(qmax: int) -> tuple[int, ...]:
    """The primes up to qmax, sieved once: every (d, p) of a scan filters
    the same list."""
    return tuple(primes_up_to(qmax))


def admissible_conductors(F: QuadraticField, p: int, n: int, qmax: int) -> list[int]:
    """Primes q <= qmax with q = 1 mod p^n, tame and unramified for the
    field, for an odd prime p and n >= 1.  As p^n >= 3, q = 1 mod p^n
    already makes q odd and q != p."""
    check_qmax(qmax)  # before anything is sieved
    check_degree(p, n)
    if n >= qmax.bit_length():  # 2^n > qmax, so no q <= qmax is 1 mod p^n
        return []
    e = p**n
    return [q for q in _sieved_primes(qmax) if q % e == 1 and F.disc % q]


def verify_class_order(
    F: QuadraticField, ell: int, p: int, n: int, qmax: int
) -> ClassOrderComparison:
    """Compare the order of the class above ell with the norm index at
    every proper conductor up to qmax."""
    if splitting_type(F, ell) is not SplittingType.SPLIT:
        raise ClassPrimeNotSplitError(f"class prime {ell} must split in d={F.d}")
    conductors = admissible_conductors(F, p, n, qmax)  # refuses a bad p first
    group = class_group(F, "wide")
    order = group.order_of(prime_form(F, ell))
    order_p = p_part(order, p)
    eps = fundamental_unit(F)
    records = []
    discrepancies = []
    any_proper = False
    for q in conductors:
        desc = cyclic_descriptor(q, p, n)
        rep = properness_report(F, desc, ell)
        if not rep.overall:
            records.append(ConductorRecord(q=q, proper=False, index=None))
            continue
        any_proper = True
        idx = norm_index(F, desc, unit=eps).index
        records.append(ConductorRecord(q=q, proper=True, index=idx))
        if idx != order_p:
            discrepancies.append((q, idx))
    if not any_proper:
        raise NoAdmissibleConductorError(
            f"no proper conductor <= {qmax} for d={F.d}, ell={ell}, p^n={p}^{n}"
        )
    return ClassOrderComparison(
        d=F.d,
        ell=ell,
        p=p,
        n=n,
        class_order=order,
        class_order_p_part=order_p,
        records=tuple(records),
        agreement=not discrepancies,
        discrepancies=tuple(discrepancies),
    )


@dataclass(frozen=True)
class DetectionResult:
    d: int
    p: int
    qmax: int
    witness_q: int | None
    witness_index: int | None
    conductors_checked: tuple[int, ...]


def inert_conductor_index(F: QuadraticField, q: int, p: int, n: int = 1) -> int:
    """Norm index of the fundamental unit at an inert conductor q of degree
    p^n, decided by the inert-conductor lemma: it is always 1.

    The prime above an inert q has residue field F_(q^2), where the unit's
    image u satisfies u^(q+1) = Norm(u) = +-1.  The test exponent
    (q^2 - 1)/p^n = (q + 1) * (q - 1)/p^n has the even factor (q - 1)/p^n
    (q and p are odd), so u^((q^2 - 1)/p^n) = 1.  The premises are
    checked, with the errors the descriptor raises for a bad conductor:
    q prime, p an odd prime, n >= 1 and q = 1 mod p^n, then q inert.
    """
    check_conductor(q, p, n)
    if kronecker(F.disc, q) != -1:
        raise ValueError(f"conductor {q} is not inert in d={F.d}")
    return 1


def detect_p_divisibility(F: QuadraticField, p: int, qmax: int) -> DetectionResult:
    """Scan the conductors passing the tower and inert-conductor conditions
    for a witness that p divides the class number: one with index > 1.

    The conductors are the inert ones among ``admissible_conductors(F, p,
    2, qmax)``, which refuses a p that is not an odd prime before any is
    listed, so a bad p fails even when none would be scanned.  Each is a
    prime q = 1 mod p^2 that is inert in the field, where
    ``inert_conductor_index`` decides the index as 1.  The first conductor
    goes through the lemma, with its premises checked, and through the
    full residue test (``norm_index``) as a run-time check of it; a
    disagreement raises ``ArithmeticError``.  The search therefore cannot
    return a witness: ``witness_q`` and ``witness_index`` are always None,
    and ``conductors_checked`` lists the conductors it decided."""
    # q = 1 (mod p^2) is the tower condition for the degree-p layer
    checked = [q for q in admissible_conductors(F, p, 2, qmax) if kronecker(F.disc, q) == -1]
    if checked:
        q = checked[0]
        index = inert_conductor_index(F, q, p)
        full = norm_index(F, cyclic_descriptor(q, p, 1)).index
        if full != index:
            raise ArithmeticError(
                f"residue test gives index {full} at the inert conductor "
                f"{q} for d={F.d}, against the lemma's {index}"
            )
    return DetectionResult(
        d=F.d,
        p=p,
        qmax=qmax,
        witness_q=None,
        witness_index=None,
        conductors_checked=tuple(checked),
    )
