"""The benchmark's four workloads.

Each workload turns a seed into rounds of inputs, drives every item through
the program's public per-item calls, and checks every output after the
timed region.  A round is a stratified block of items: every round of a
workload has about the same mix of cheap and expensive items, so a run made
of whole rounds measures the same traffic whatever the seed.

Inputs are drawn by the benchmark's own code (its own squarefree and prime
sieves), never by the program, so the seed alone decides what the program
receives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import prod
from typing import Callable, Iterator


def squarefree_upto(n: int) -> list[int]:
    """Squarefree integers 2..n, by sieving out multiples of squares."""
    ok = [True] * (n + 1)
    k = 2
    while k * k <= n:
        for m in range(k * k, n + 1, k * k):
            ok[m] = False
        k += 1
    return [d for d in range(2, n + 1) if ok[d]]


def primes_below(n: int) -> list[int]:
    sieve = [True] * n
    sieve[0:2] = [False, False]
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = [False] * len(sieve[k * k :: k])
    return [k for k in range(n) if sieve[k]]


def round_rng(workload: str, seed: int, round_id) -> random.Random:
    """Independent, reproducible stream for one round (string seeds hash
    deterministically, unlike ``hash()``)."""
    return random.Random(f"{workload}/{seed}/{round_id}")


def permutation_walk(items: list, count: int, label: str, round_id: int) -> list:
    """Positions round_id*count .. (round_id+1)*count - 1 of an endless
    sequence of permutations of ``items``, each seeded by ``label`` and its
    epoch: every item comes up once before any comes up twice."""
    out = []
    perms: dict[int, list] = {}
    for pos in range(round_id * count, (round_id + 1) * count):
        epoch, k = divmod(pos, len(items))
        if epoch not in perms:
            perms[epoch] = list(items)
            random.Random(f"{label}/{epoch}").shuffle(perms[epoch])
        out.append(perms[epoch][k])
    return out


@dataclass(frozen=True)
class Workload:
    """One workload: how to prepare its input tables, draw a round, run the
    round's items, and check each output.

    ``items`` yields one zero-argument callable per item; the runner times
    each call.  ``canonical`` renders an output as the line that goes into
    the digest.  ``check`` returns failure messages for one output and
    ``check_round`` for a whole round (both run outside the timed region).
    """

    name: str
    why: str
    prepare: Callable
    round_inputs: Callable
    items: Callable
    canonical: Callable
    check: Callable
    check_round: Callable
    trace_rounds: int  # rounds measured untraced and then traced with --trace 1


def _no_round_check(ctx, outputs) -> list[str]:
    return []


# --- scan workloads --------------------------------------------------------

SCAN_P = (3, 5)


def _prepare_scan(dmax: int, buckets: int, mods) -> list[list[int]]:
    sq = squarefree_upto(dmax)
    width = -(-(dmax - 1) // buckets)
    return [
        [d for d in sq if lo <= d < lo + width]
        for lo in range(2, dmax + 1, width)
    ]


def _scan_round(workload: str, ctx, seed: int, round_id) -> list[int]:
    """One d per bucket, ascending; each bucket is walked in seeded
    permutations, so a run meets each d once before it meets any twice."""
    if not isinstance(round_id, int):  # the warm-up round
        rng = round_rng(workload, seed, round_id)
        return [rng.choice(bucket) for bucket in ctx]
    return [permutation_walk(bucket, 1, f"{workload}/{seed}/bucket{b}", round_id)[0]
            for b, bucket in enumerate(ctx)]


def _scan_item(mods, d: int, qmax: int, oracle: bool):
    record = mods.harness.scan_one(d, SCAN_P, qmax, oracle)
    return record.to_json_line(), record


def _scan_items(qmax: int, oracle: bool, mods, ctx, inputs) -> Iterator[Callable]:
    for d in inputs:
        yield partial(_scan_item, mods, d, qmax, oracle)


def _check_scan(mods, ctx, out) -> list[str]:
    _, r = out
    bad = []
    if prod(r.divisors) != r.h:
        bad.append(f"d={r.d}: elementary divisors {r.divisors} do not multiply to h={r.h}")
    want_plus = r.h if r.eps_norm == -1 else 2 * r.h
    if r.h_plus != want_plus:
        bad.append(f"d={r.d}: h+={r.h_plus} but N(eps)={r.eps_norm}, h={r.h}")
    if r.h_oracle is not None and r.h_oracle != r.h:
        bad.append(f"d={r.d}: Minkowski oracle h={r.h_oracle} != h={r.h}")
    for entry in r.per_p:
        if entry["witness_q"] is not None and r.h % entry["p"]:
            bad.append(f"d={r.d}: witness q={entry['witness_q']} but {entry['p']} does not divide h={r.h}")
    return bad


def _scan_canonical(out) -> str:
    return out[0]


# d <= 10^4 rather than 2*10^4: a 30-second run then meets nearly all 6082
# fields, where at 2*10^4 it met a third of 12159, and which of the rare
# large-h fields it met moved item_ms_tail by more than a quarter across seeds
SCAN_CLASSGROUP = Workload(
    name="scan-classgroup",
    why=(
        "class-group computation alone (qmax=0) over squarefree d up to 10000, "
        "where cost grows with D and h; detection, periods and transfer stay idle"
    ),
    prepare=partial(_prepare_scan, 10_000, 64),
    round_inputs=partial(_scan_round, "scan-classgroup"),
    items=partial(_scan_items, 0, False),
    canonical=_scan_canonical,
    check=_check_scan,
    check_round=_no_round_check,
    trace_rounds=20,
)

SCAN_WITNESS = Workload(
    name="scan-witness",
    why=(
        "witness search to qmax=1000 plus the Minkowski oracle over d up to 1000, "
        "where every d re-walks the same conductors and shared work peaks"
    ),
    prepare=partial(_prepare_scan, 1_000, 32),
    round_inputs=partial(_scan_round, "scan-witness"),
    items=partial(_scan_items, 1_000, True),
    canonical=_scan_canonical,
    check=_check_scan,
    check_round=_no_round_check,
    trace_rounds=30,
)


# --- periods and relative arithmetic ---------------------------------------

PERIOD_QMAX = 1000
# items per round from each degree; proportional to the 80/40/27/7 conductors
# of degree 3/5/9/25 below 1000, so each round has the full set's cost mix
PERIOD_STRATA = ((3, 1, 11), (5, 1, 6), (3, 2, 4), (5, 2, 1))
# Faddeev-LeVerrier at degree 25 costs about 2 s a call, 25 times the rest of
# the item, so the charpoly runs on degrees 3, 5 and 9 only
CHARPOLY_MAX_DEGREE = 9
SEARCH_DEGREE = 3  # 9^3..13^3 candidates at height 1; degree 5 is 9^5 and up
SEARCH_BOUND = 1
FIELD_DMAX = 200
# alpha and beta have this many nonzero period coordinates; with dense
# elements the three degree-25 norms cost 0.2-0.3 s, as much as the other 21
# items of a round together
ELEMENT_TERMS = 3
NONZERO_UNITS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0))


@dataclass(frozen=True)
class PeriodInput:
    q: int
    p: int
    n: int
    d: int
    alpha: tuple[tuple[int, int], ...]  # (a, b) coordinates, denominator 1
    beta: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PeriodOutput:
    item: PeriodInput
    poly: tuple[int, ...]
    index: int
    norm_alpha: object
    norm_beta: object
    norm_product: object
    charpoly: tuple | None
    found: object  # RelativeElement, or None when no search ran


def _prepare_periods(mods):
    primes = primes_below(PERIOD_QMAX)
    strata = []
    for p, n, per_round in PERIOD_STRATA:
        e = p**n
        strata.append(((p, n), [q for q in primes if q % e == 1], per_round))
    return {"strata": strata, "fields": squarefree_upto(FIELD_DMAX), "disc_ok": {}}


def _periods_round(ctx, seed: int, round_id) -> list[PeriodInput]:
    rng = round_rng("periods-relarith", seed, round_id)
    out = []
    for (p, n), conductors, per_round in ctx["strata"]:
        if isinstance(round_id, int):
            qs = permutation_walk(conductors, per_round, f"periods-relarith/{seed}/{p}^{n}", round_id)
        else:  # the warm-up round
            qs = rng.sample(conductors, per_round)
        e = p**n
        for q in qs:
            d = rng.choice([d for d in ctx["fields"] if d % q])
            out.append(PeriodInput(q, p, n, d, _sparse(rng, e), _sparse(rng, e)))
    return out


def _sparse(rng: random.Random, e: int) -> tuple[tuple[int, int], ...]:
    """Coordinates of an element of height 1 with ELEMENT_TERMS nonzero
    period coordinates."""
    coords = [(0, 0)] * e
    for i in rng.sample(range(e), min(e, ELEMENT_TERMS)):
        coords[i] = rng.choice(NONZERO_UNITS)
    return tuple(coords)


def _periods_item(mods, item: PeriodInput) -> PeriodOutput:
    desc = mods.cyclicext.period_polynomial(item.q, item.p, item.n)
    F = mods.quadfield.make_field(item.d)
    ext = mods.compose.RelativeExtension(desc, F)
    QI = mods.quadfield.QuadInteger
    alpha = ext.element([QI(item.d, a, b) for a, b in item.alpha])
    beta = ext.element([QI(item.d, a, b) for a, b in item.beta])
    na = ext.relative_norm(alpha)
    nb = ext.relative_norm(beta)
    nab = ext.relative_norm(alpha * beta)
    cp = ext.charpoly(alpha).coeffs if desc.degree <= CHARPOLY_MAX_DEGREE else None
    found = None
    if desc.degree == SEARCH_DEGREE:
        # alpha has height <= SEARCH_BOUND, so the search must find an element
        found = ext.search_norm_element(na, SEARCH_BOUND)
    return PeriodOutput(item, desc.period_poly, desc.power_basis_index, na, nb, nab, cp, found)


def _periods_items(mods, ctx, inputs) -> Iterator[Callable]:
    for item in inputs:
        yield partial(_periods_item, mods, item)


def _quad(x) -> list[int]:
    return [x.a, x.b, x.den]


def _periods_canonical(out: PeriodOutput) -> str:
    it = out.item
    found = out.found
    if found is not None and not isinstance(found, str):  # str: NOT_FOUND
        found = [_quad(c) for c in found.coords]
    return json.dumps(
        {
            "q": it.q, "p": it.p, "n": it.n, "d": it.d,
            "poly": list(out.poly),
            "index": out.index,
            "norms": [_quad(out.norm_alpha), _quad(out.norm_beta), _quad(out.norm_product)],
            "charpoly": None if out.charpoly is None else [_quad(c) for c in out.charpoly],
            "found": found,
        },
        separators=(",", ":"),
    )


def _check_periods(mods, ctx, out: PeriodOutput) -> list[str]:
    it = out.item
    e = it.p**it.n
    tag = f"q={it.q} p^n={it.p}^{it.n} d={it.d}"
    bad = []
    key = (out.poly, it.q, out.index)  # a run meets each conductor many times
    if key not in ctx["disc_ok"]:
        disc = mods.intmath.poly_discriminant(list(out.poly))
        ctx["disc_ok"][key] = disc == it.q ** (e - 1) * out.index**2
    if not ctx["disc_ok"][key]:
        bad.append(f"{tag}: disc != q^(e-1) * index^2 with index {out.index}")
    if out.norm_product != out.norm_alpha * out.norm_beta:
        bad.append(f"{tag}: N(alpha*beta) != N(alpha) * N(beta)")
    if out.charpoly is not None:
        want = out.norm_alpha if e % 2 == 0 else -out.norm_alpha
        if len(out.charpoly) != e + 1 or out.charpoly[0] != want:
            bad.append(f"{tag}: charpoly constant is not (-1)^e * N(alpha)")
    if e == SEARCH_DEGREE:
        if out.found is None or isinstance(out.found, str):
            bad.append(f"{tag}: search found nothing though alpha has height {SEARCH_BOUND}")
        elif out.found.norm() != out.norm_alpha:
            bad.append(f"{tag}: search returned an element of the wrong norm")
    return bad


PERIODS_RELARITH = Workload(
    name="periods-relarith",
    why=(
        "period polynomials of degree 3 to 25 for conductors below 1000, with "
        "relative norms, charpolys and norm searches in the compositum"
    ),
    prepare=_prepare_periods,
    round_inputs=_periods_round,
    items=_periods_items,
    canonical=_periods_canonical,
    check=_check_periods,
    check_round=_no_round_check,
    trace_rounds=20,
)


# --- transfer survey -------------------------------------------------------

TRANSFER_MAX_ORDER = 36
# (instances, vanishing discrepancies) of the survey at this order bound;
# relabelling the groups must not change them
TRANSFER_EXPECTED = (1113, 32)


@dataclass(frozen=True)
class GroupInput:
    name: str
    table: tuple[tuple[int, ...], ...]


def _cyclic_product_table(orders) -> tuple[tuple[int, ...], ...]:
    elems = list(product(*(range(o) for o in orders)))
    index = {e: i for i, e in enumerate(elems)}
    return tuple(
        tuple(index[tuple((x + y) % o for x, y, o in zip(a, b, orders))] for b in elems)
        for a in elems
    )


def _prepare_transfer(mods):
    return [
        ("x".join(f"C{o}" for o in factors), _cyclic_product_table(factors))
        for factors in mods.harness.abelian_group_types(TRANSFER_MAX_ORDER)
    ]


def _transfer_round(ctx, seed: int, round_id) -> list[GroupInput]:
    """Every group of the survey, each relabelled by a fresh permutation."""
    rng = round_rng("transfer-survey", seed, round_id)
    out = []
    for name, table in ctx:
        n = len(table)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[perm[a]][perm[b]] = perm[table[a][b]]
        out.append(GroupInput(name, tuple(tuple(row) for row in relabelled)))
    return out


def _transfer_instance(mods, G, H) -> tuple:
    """One survey instance, as ``harness.transfer_survey`` evaluates it."""
    t = mods.transfer
    index = G.n // len(H)
    oracle_ok = all(t.transfer(G, H, g) == G.power(g, index) for g in range(G.n))
    res = t.restricted_transfer(G, H)
    diagram = t.diagram_check(G, H).commutes if res.hypothesis_holds else None
    return (G.name, tuple(sorted(H)), len(H), index,
            res.hypothesis_holds, res.vanishes, oracle_ok, diagram)


def _transfer_first(mods, group: GroupInput, state: dict) -> tuple:
    G = mods.transfer.FiniteGroup(group.table, name=group.name,
                                  max_order=TRANSFER_MAX_ORDER)
    state["G"] = G
    state["subgroups"] = G.all_subgroups()
    return _transfer_instance(mods, G, state["subgroups"][0])


def _transfer_items(mods, ctx, inputs) -> Iterator[Callable]:
    """One item per (G, H) instance; the first instance of each group also
    pays for validating the group table and listing its subgroups."""
    for group in inputs:
        state: dict = {}
        yield partial(_transfer_first, mods, group, state)
        for H in state.get("subgroups", [])[1:]:
            yield partial(_transfer_instance, mods, state["G"], H)


def _transfer_canonical(out) -> str:
    return json.dumps(list(out), separators=(",", ":"))


def _check_transfer(mods, ctx, out) -> list[str]:
    name, sub, _, _, _, _, oracle_ok, diagram = out
    bad = []
    if not oracle_ok:
        bad.append(f"{name} H={sub}: transfer disagrees with g -> g^[G:H]")
    if diagram is False:
        bad.append(f"{name} H={sub}: transfer diagram does not commute")
    return bad


def transfer_signature(outputs) -> tuple[int, int]:
    """(instances, vanishing discrepancies) of one survey round."""
    done = [o for o in outputs if o is not None]
    return len(done), sum(1 for o in done if o[4] and not o[5])


def _check_transfer_round(ctx, outputs) -> list[str]:
    got = transfer_signature(outputs)
    if got != TRANSFER_EXPECTED:
        return [f"survey round gives (instances, discrepancies) = {got}, expected {TRANSFER_EXPECTED}"]
    return []


TRANSFER_SURVEY = Workload(
    name="transfer-survey",
    why=(
        "every (G, H) of the transfer survey of abelian groups up to order 36, "
        "each group table relabelled by a seeded permutation"
    ),
    prepare=_prepare_transfer,
    round_inputs=_transfer_round,
    items=_transfer_items,
    canonical=_transfer_canonical,
    check=_check_transfer,
    check_round=_check_transfer_round,
    trace_rounds=2,
)


WORKLOADS = {w.name: w for w in (SCAN_CLASSGROUP, SCAN_WITNESS, PERIODS_RELARITH, TRANSFER_SURVEY)}
