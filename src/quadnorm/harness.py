"""Orchestration: end-to-end verification scenarios, discriminant scans,
frequency statistics and deterministic report serialization.

Scenario reports accumulate per-claim verdicts instead of aborting: the
toolkit's job is to document where its built-in reference claims hold and
where the computations contradict them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import prod
from typing import Iterable, Iterator

from . import normtest
from .cyclicext import (
    check_degree,
    period_polynomial,
    properness_report,
    same_field_by_split_patterns,
)
from .formclass import class_data, class_group, minkowski_class_number, prime_form
from .intmath import factorize, is_squarefree, poly_discriminant
from .quadfield import MAX_RADICAND, fundamental_unit, make_field
from .transfer import FiniteGroup, diagram_check, restricted_transfer, transfer


class EmptyInputError(ValueError):
    pass


class InvalidConfigError(ValueError):
    pass


# Reference frequencies for the divisibility statistics, in percent.  Their
# source and the discriminant height they refer to are not recorded.  For
# comparison, the Cohen-Lenstra limits for real quadratic fields,
# 1 - prod_{k>=2} (1 - p^-k), are 15.98% for p = 3 and 4.96% for p = 5.
REFERENCE_FREQUENCIES = {3: Fraction("12.574"), 5: Fraction("3.772"),
                         7: Fraction("1.796"), 9: Fraction("1.572")}


@dataclass(frozen=True)
class Claim:
    name: str
    expected: object
    computed: object
    passed: bool
    note: str = ""


@dataclass
class Report:
    title: str
    claims: list[Claim] = field(default_factory=list)

    def add(self, name: str, expected, computed, note: str = "") -> None:
        self.claims.append(
            Claim(name=name, expected=expected, computed=computed,
                  passed=expected == computed, note=note)
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def claim(self, name: str) -> Claim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.claims:
            tag = "PASS" if c.passed else "FAIL"
            line = f"{tag} {c.name}: expected={c.expected!r} computed={c.computed!r}"
            if c.note:
                line += f"  [{c.note}]"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


EX79_REFERENCE_CUBIC = [-11, 21, -10, 1]  # ascending coefficients
APPENDIX_CUBIC = [-167, 101, -18, 1]


def verify_example_79() -> Report:
    """The d = 79 showcase: class number, unit, proper conductor 37, norm
    index and the order-vs-index comparison."""
    rep = Report("verify ex79")
    F = make_field(79)
    group = class_group(F, "wide")
    rep.add("class_number_wide", 3, group.h)
    eps = fundamental_unit(F)
    rep.add("fundamental_unit", (80, 9, 1), (eps.value.a, eps.value.b, eps.value.den))
    rep.add("unit_norm", 1, eps.unit_norm)
    desc = period_polynomial(37, 3, 1)
    rep.add(
        "conductor37_defines_reference_cubic_field",
        True,
        same_field_by_split_patterns(desc, EX79_REFERENCE_CUBIC, 1000),
    )
    prop = properness_report(F, desc, 3)
    rep.add("descriptor_q37_proper", True, prop.overall)
    idx_report = normtest.norm_index(F, desc)
    rep.add(
        "norm_index_q37",
        3,
        idx_report.index,
        note="field-norm index from the local residue tests (caveat flag set)",
    )
    order = group.order_of(prime_form(F, 3))
    rep.add("class_order_above_3", 3, order)
    rep.add(
        "order_equals_index_q37",
        True,
        order == idx_report.index,
        note="the order/index identity the toolkit is built to probe",
    )
    return rep


def reproduce_appendix_a() -> Report:
    """The conductor-7 reference computation rebuilt on this stack: cubic
    discriminant, field identification, and index-vs-class-number at the
    two split primes above 7."""
    rep = Report("verify appendixa")
    F = make_field(79)
    rep.add("reference_cubic_disc", 49, poly_discriminant(APPENDIX_CUBIC))
    desc = period_polynomial(7, 3, 1)
    rep.add(
        "cubic_defines_conductor7_field",
        True,
        same_field_by_split_patterns(desc, APPENDIX_CUBIC, 1000),
    )
    idx_report = normtest.norm_index(F, desc)
    rep.add("norm_index_q7", 3, idx_report.index)
    per_prime = tuple(sorted(v.local_order for v in idx_report.verdicts))
    rep.add("local_orders_at_split_primes", (3, 3), per_prime)
    group = class_group(F, "wide")
    rep.add("index_equals_class_number", group.h, idx_report.index)
    prop = properness_report(F, desc, 3)
    rep.add(
        "inert_conductor_condition_fails_for_q7",
        True,
        not prop.disc_primes_inert_in_N,
        note="7 splits in the quadratic field, so this conductor is not proper",
    )
    return rep


# --- transfer survey -------------------------------------------------------


def abelian_group_types(max_order: int) -> list[tuple[int, ...]]:
    """All abelian groups of order 2..max_order as cyclic factor tuples."""
    def partitions(k: int) -> list[list[int]]:
        out = [[]] if k == 0 else []
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    out.append([first] + rest)
        return out

    types = []
    for order in range(2, max_order + 1):
        fac = factorize(order)
        per_prime = []
        for p, e in sorted(fac.items()):
            per_prime.append([[p**part for part in parts] for parts in partitions(e)])
        combos = [[]]
        for options in per_prime:
            combos = [c + opt for c in combos for opt in options]
        for combo in combos:
            types.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(types), key=lambda t: (prod(t), t))


@dataclass(frozen=True)
class SurveyInstance:
    group: str
    factors: tuple[int, ...]
    subgroup: tuple[int, ...]
    subgroup_order: int
    index: int
    hypothesis_holds: bool
    vanishes: bool
    oracle_agrees: bool
    diagram_commutes: bool | None

    @property
    def vanishing_discrepancy(self) -> bool:
        return self.hypothesis_holds and not self.vanishes


def transfer_survey(max_order: int = 36) -> list[SurveyInstance]:
    """Exhaustive transfer survey over abelian groups up to max_order.

    For every subgroup of every abelian group: compare coset-product
    transfer values against the direct power map g -> g^[G:H], record the
    (hypothesis, vanishing) verdict, and run the diagram congruence on
    instances satisfying the divisibility hypothesis.
    """
    out = []
    for factors in abelian_group_types(max_order):
        G = FiniteGroup.cyclic_product(factors, max_order=max_order)
        for H in G.all_subgroups():
            index = G.n // len(H)
            oracle_ok = all(
                transfer(G, H, g) == G.power(g, index) for g in range(G.n)
            )
            res = restricted_transfer(G, H)
            diagram = None
            if res.hypothesis_holds:
                diagram = diagram_check(G, H).commutes
            out.append(
                SurveyInstance(
                    group=G.name,
                    factors=factors,
                    subgroup=tuple(sorted(H)),
                    subgroup_order=len(H),
                    index=index,
                    hypothesis_holds=res.hypothesis_holds,
                    vanishes=res.vanishes,
                    oracle_agrees=oracle_ok,
                    diagram_commutes=diagram,
                )
            )
    return out


# --- scanning --------------------------------------------------------------


# Ceiling on scan worker processes.  The pool starts every worker at once,
# and the scan is CPU-bound, so workers beyond the cores only add processes.
MAX_WORKERS = 64


@dataclass
class RunConfig:
    dmax: int = 100
    qmax: int = 0  # 0 disables the witness search
    p_list: tuple[int, ...] = (3,)
    workers: int = 1
    out_path: str | None = None
    oracle_check: bool = False

    def validate(self) -> "RunConfig":
        if self.dmax < 2:
            raise InvalidConfigError("dmax must be >= 2")
        if self.dmax > MAX_RADICAND:
            raise InvalidConfigError(f"dmax is above the radicand ceiling {MAX_RADICAND}")
        if self.workers < 1:
            raise InvalidConfigError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise InvalidConfigError(f"workers must be <= {MAX_WORKERS}")
        try:
            normtest.check_qmax(self.qmax)
            for p in self.p_list:
                check_degree(p, 1)
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from None
        if len(set(self.p_list)) < len(self.p_list):
            raise InvalidConfigError(f"p is repeated in {','.join(map(str, self.p_list))}")
        return self


CONFIG_ENV_VAR = "QUADNORM_CONFIG"
# any other value is refused, so that a typo cannot turn a check off
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# each scan setting once: config key and ``scan`` flag dest -> (RunConfig
# field, parser of the config-file text)
SETTINGS = {
    "dmax": ("dmax", int),
    "qmax": ("qmax", int),
    "p": ("p_list", lambda s: [int(x) for x in s.split(",")]),
    "workers": ("workers", int),
    "out": ("out_path", str),
    "oracle_check": ("oracle_check", lambda s: BOOLEANS[s.lower()]),
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfigError(f"bad config line: {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def config_from_sources(path: str | None, overrides: dict) -> RunConfig:
    """File values (path argument, else the environment variable) overlaid
    by explicit command-line overrides."""
    cfg_path = path or os.environ.get(CONFIG_ENV_VAR)
    data = load_config_file(cfg_path) if cfg_path else {}
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise InvalidConfigError(
            f"unknown config key(s) {', '.join(unknown)}; known: {', '.join(SETTINGS)}"
        )
    cfg = RunConfig()
    for key, (name, parse) in SETTINGS.items():
        value = overrides.get(key)
        if value is None and key in data:
            try:
                value = parse(data[key])
            except (ValueError, KeyError) as exc:
                raise InvalidConfigError(f"bad value for {key}: {data[key]!r}") from exc
        if value is not None:
            setattr(cfg, name, value)
    cfg.p_list = tuple(cfg.p_list)
    return cfg.validate()


@dataclass
class ScanRecord:
    d: int
    delta: int
    h: int
    h_plus: int
    divisors: tuple[int, ...]
    eps_a: int
    eps_b: int
    eps_den: int
    eps_norm: int
    per_p: tuple[dict, ...]
    h_oracle: int | None = None

    def to_json_line(self) -> str:
        body = {
            "d": self.d,
            "delta": self.delta,
            "h": self.h,
            "h_plus": self.h_plus,
            "divisors": list(self.divisors),
            "eps": {
                "a": self.eps_a,
                "b": self.eps_b,
                "den": self.eps_den,
                "norm": self.eps_norm,
            },
            "per_p": list(self.per_p),
        }
        if self.h_oracle is not None:
            body["h_oracle"] = self.h_oracle
        return json.dumps(body, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        """The record of a line that ``to_json_line`` wrote.  A malformed
        line raises ValueError naming the missing or ill-typed key."""
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("record is not a JSON object")
        eps = _typed(data, "eps", dict)
        return cls(
            d=_typed(data, "d", int),
            delta=_typed(data, "delta", int),
            h=_typed(data, "h", int),
            h_plus=_typed(data, "h_plus", int),
            divisors=tuple(_typed(data, "divisors", list)),
            eps_a=_typed(eps, "a", int, where="eps."),
            eps_b=_typed(eps, "b", int, where="eps."),
            eps_den=_typed(eps, "den", int, where="eps."),
            eps_norm=_typed(eps, "norm", int, where="eps."),
            per_p=tuple(_typed(data, "per_p", list)),
            h_oracle=None if data.get("h_oracle") is None else _typed(data, "h_oracle", int),
        )

    def csv_row(self, p_list: Iterable[int]) -> list[str]:
        row = [
            str(self.d), str(self.delta), str(self.h), str(self.h_plus),
            "x".join(str(v) for v in self.divisors) or "1",
            str(self.eps_a), str(self.eps_b), str(self.eps_den), str(self.eps_norm),
        ]
        by_p = {entry["p"]: entry for entry in self.per_p}
        for p in p_list:
            entry = by_p.get(p, {})
            row.append(str(entry.get("divides_h", "")))
            row.append(str(entry.get("witness_q", "")))
            row.append(str(entry.get("index", "")))
        return row


def _typed(data: dict, key: str, kind: type, where: str = ""):
    """data[key], checked to be a ``kind``; JSON's true and false are not
    integers here."""
    if key not in data:
        raise ValueError(f"missing key '{where}{key}'")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"key '{where}{key}' is not of type {kind.__name__}")
    return value


def csv_header(p_list: Iterable[int]) -> list[str]:
    head = ["d", "delta", "h", "h_plus", "divisors",
            "eps_a", "eps_b", "eps_den", "eps_norm"]
    for p in p_list:
        head += [f"p{p}_divides", f"p{p}_witness_q", f"p{p}_index"]
    return head


def scan_one(d: int, p_list: tuple[int, ...], qmax: int, oracle: bool) -> ScanRecord:
    F = make_field(d)
    narrow_h, group = class_data(F)
    eps = fundamental_unit(F)
    per_p = []
    for p in p_list:
        entry: dict = {"p": p, "divides_h": group.h % p == 0,
                       "witness_q": None, "index": None}
        if qmax > 0:
            det = normtest.detect_p_divisibility(F, p, qmax)
            entry["witness_q"] = det.witness_q
            entry["index"] = det.witness_index
        per_p.append(entry)
    return ScanRecord(
        d=d,
        delta=F.disc,
        h=group.h,
        h_plus=narrow_h,
        divisors=group.elementary_divisors,
        eps_a=eps.value.a,
        eps_b=eps.value.b,
        eps_den=eps.value.den,
        eps_norm=eps.unit_norm,
        per_p=tuple(per_p),
        h_oracle=minkowski_class_number(F) if oracle else None,
    )


def scan(config: RunConfig) -> Iterator[ScanRecord]:
    """One record per squarefree d <= dmax, ascending; the stream content is
    independent of the worker count.  A serial scan takes each d as the
    stream is read, so it holds no list of the fields."""
    config.validate()
    args = (filter(is_squarefree, range(2, config.dmax + 1)), repeat(tuple(config.p_list)),
            repeat(config.qmax), repeat(config.oracle_check))
    if config.workers <= 1:
        yield from map(scan_one, *args)
        return
    # imported here: the pool costs memory that serial runs never use
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        chunk = max(1, config.dmax // (config.workers * 8))
        yield from pool.map(scan_one, *args, chunksize=chunk)


# --- statistics -------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyReport:
    p: int
    total: int
    divisible: int
    fraction: Fraction
    reference_percent: Fraction | None
    abs_deviation: Fraction | None

    def to_text(self) -> str:
        frac = f"{self.divisible}/{self.total} = {float(self.fraction):.6f}"
        if self.reference_percent is None:
            return f"p={self.p}: {frac} (no reference value)"
        ref = self.reference_percent / 100
        return (
            f"p={self.p}: {frac}; reference {float(ref):.6f}"
            f"; |deviation| = {float(self.abs_deviation):.6f}"
        )


def stats(records: list[ScanRecord], p: int) -> FrequencyReport:
    """Fraction of the given fields whose class number p divides, next to
    the reference frequency table."""
    if not records:
        raise EmptyInputError("no records")
    total = len(records)
    divisible = sum(1 for r in records if r.h % p == 0)
    fraction = Fraction(divisible, total)
    ref = REFERENCE_FREQUENCIES.get(p)
    dev = abs(fraction - ref / 100) if ref is not None else None
    return FrequencyReport(
        p=p,
        total=total,
        divisible=divisible,
        fraction=fraction,
        reference_percent=ref,
        abs_deviation=dev,
    )


@dataclass(frozen=True)
class DetectionSweep:
    dmax: int
    p_list: tuple[int, ...]
    qmax: int
    witnesses: tuple[tuple[int, int, int], ...]  # (d, p, witness q)
    unsound: tuple[tuple[int, int, int], ...]  # witnesses with p not dividing h
    missed: tuple[tuple[int, int], ...]  # p | h but no witness found


def detection_sweep(dmax: int, p_list: tuple[int, ...], qmax: int) -> DetectionSweep:
    """Soundness sweep of the witness direction: every witness must point at
    a field whose independently computed class number p divides.  Converse
    failures (p | h, no witness) are recorded, not failed."""
    witnesses = []
    unsound = []
    missed = []
    for d in filter(is_squarefree, range(2, dmax + 1)):
        F = make_field(d)
        h = minkowski_class_number(F)
        for p in p_list:
            det = normtest.detect_p_divisibility(F, p, qmax)
            if det.witness_q is not None:
                witnesses.append((d, p, det.witness_q))
                if h % p:
                    unsound.append((d, p, det.witness_q))
            elif h % p == 0:
                missed.append((d, p))
    return DetectionSweep(
        dmax=dmax,
        p_list=tuple(p_list),
        qmax=qmax,
        witnesses=tuple(witnesses),
        unsound=tuple(unsound),
        missed=tuple(missed),
    )
