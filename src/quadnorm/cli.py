"""Command-line interface.

Exit codes: 0 when every verdict passes (or the command has no verdicts),
1 when a discrepancy was recorded, 2 on usage, configuration or domain
errors, including a computation that exceeds its step cap.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import harness, normtest
from .cyclicext import cyclic_descriptor, period_polynomial, tower_certificate
from .formclass import class_group
from .harness import (
    CONFIG_ENV_VAR,
    Report,
    ScanRecord,
    config_from_sources,
    csv_header,
    scan,
    stats,
)
from .quadfield import fundamental_unit, make_field
from .transfer import FiniteGroup, diagram_check, restricted_transfer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadnorm",
        description="class groups and unit-norm indices of real quadratic fields",
    )
    ap.add_argument("--config", help=f"key=value config file (also ${CONFIG_ENV_VAR})")
    sub = ap.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="discriminant and basis of Q(sqrt(d))")
    p_field.add_argument("--d", type=int, required=True)

    p_unit = sub.add_parser("unit", help="fundamental unit of Q(sqrt(d))")
    p_unit.add_argument("--d", type=int, required=True)

    p_cg = sub.add_parser("classgroup", help="class group structure")
    p_cg.add_argument("--d", type=int, required=True)
    p_cg.add_argument("--narrow", action="store_true")

    p_ext = sub.add_parser("ext", help="period field of prime conductor")
    p_ext.add_argument("--q", type=int, required=True)
    p_ext.add_argument("--p", type=int, required=True)
    p_ext.add_argument("--n", type=int, default=1)

    p_ni = sub.add_parser("normindex", help="local norm verdicts and index")
    p_ni.add_argument("--d", type=int, required=True)
    p_ni.add_argument("--q", type=int, required=True)
    p_ni.add_argument("--p", type=int, required=True)
    p_ni.add_argument("--n", type=int, default=1)

    p_detect = sub.add_parser("detect", help="search for a divisibility witness")
    p_detect.add_argument("--d", type=int, required=True)
    p_detect.add_argument("--p", type=int, required=True)
    p_detect.add_argument("--qmax", type=int, required=True)

    p_scan = sub.add_parser("scan", help="scan squarefree radicands")
    p_scan.add_argument("--dmax", type=int)
    p_scan.add_argument("--p", type=int, action="append", dest="p_list")
    p_scan.add_argument("--qmax", type=int)
    p_scan.add_argument("--out", type=str)
    p_scan.add_argument("--csv", type=str, help="also write a flattened CSV")
    p_scan.add_argument("--workers", type=int)
    p_scan.add_argument("--oracle-check", action="store_true",
                        help="attach the ideal-cycle class number to each record")

    p_stats = sub.add_parser("stats", help="divisibility frequencies of a scan")
    p_stats.add_argument("--in", dest="in_path", type=str, required=True)
    p_stats.add_argument("--p", type=int, action="append", dest="p_list", required=True)

    p_tr = sub.add_parser("transfer", help="transfer report for a table group")
    p_tr.add_argument("--table-file", type=str, required=True)
    p_tr.add_argument("--subgroup", type=str, required=True,
                      help="comma-separated element indices")

    p_ver = sub.add_parser("verify", help="built-in verification scenarios")
    p_ver.add_argument("scenario", choices=["ex79", "appendixa", "thm14"])
    p_ver.add_argument("--d", type=int)
    p_ver.add_argument("--l", type=int)
    p_ver.add_argument("--p", type=int)
    p_ver.add_argument("--n", type=int, default=1)
    p_ver.add_argument("--qmax", type=int)
    return ap


def _print_report(rep: Report) -> int:
    print(rep.to_text())
    return 0 if rep.passed else 1


def _cmd_field(args) -> int:
    F = make_field(args.d)
    basis = "(1+sqrt(d))/2" if F.half_basis else "sqrt(d)"
    print(f"d={F.d} disc={F.disc} integral_basis=1,{basis}")
    return 0


def _cmd_unit(args) -> int:
    F = make_field(args.d)
    u = fundamental_unit(F)
    print(f"d={F.d} eps=({u.value.a}{u.value.b:+d}*sqrt({F.d}))/{u.value.den} "
          f"norm={u.unit_norm}")
    return 0


def _cmd_classgroup(args) -> int:
    F = make_field(args.d)
    g = class_group(F, "narrow" if args.narrow else "wide")
    gens = " ".join(str(c.canonical.as_tuple()) for c in g.generators)
    divs = "x".join(str(v) for v in g.elementary_divisors) or "1"
    print(f"d={F.d} disc={F.disc} flavor={g.flavor} h={g.h} divisors={divs} "
          f"generators={gens or '-'}")
    return 0


def _cmd_ext(args) -> int:
    desc = period_polynomial(args.q, args.p, args.n)
    poly = " ".join(str(c) for c in desc.period_poly)
    tower = tower_certificate(args.q, args.p, args.n)
    print(f"q={desc.q} degree={desc.degree} period_poly_ascending={poly}")
    print(f"field_disc=q^{desc.degree - 1} power_basis_index={desc.power_basis_index} "
          f"tower={'yes' if tower.exists else 'no'}")
    return 0


def _cmd_normindex(args) -> int:
    F = make_field(args.d)
    desc = cyclic_descriptor(args.q, args.p, args.n)
    rep = normtest.norm_index(F, desc)
    for v in rep.verdicts:
        print(f"prime={v.prime_label} f={v.residue_degree} exponent={v.exponent_used} "
              f"is_norm={v.is_norm} local_order={v.local_order}")
    print(f"index={rep.index} ratio_p_part={rep.ratio_p_part} t={rep.t} "
          f"caveat=field-norm-semantics c={rep.c_estimate}")
    return 0


def _cmd_detect(args) -> int:
    F = make_field(args.d)
    det = normtest.detect_p_divisibility(F, args.p, args.qmax)
    if det.witness_q is None:
        print(f"d={args.d} p={args.p} qmax={args.qmax} witness=none "
              f"checked={','.join(map(str, det.conductors_checked)) or '-'}")
    else:
        print(f"d={args.d} p={args.p} witness_q={det.witness_q} "
              f"index={det.witness_index}")
    return 0


def _cmd_scan(args, config_path) -> int:
    cfg = config_from_sources(
        config_path,
        {
            "dmax": args.dmax,
            "qmax": args.qmax,
            "p": tuple(args.p_list) if args.p_list else None,
            "out": args.out,
            "workers": args.workers,
            "oracle_check": True if args.oracle_check else None,
        },
    )
    records = list(scan(cfg))
    lines = [r.to_json_line() for r in records]
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header(cfg.p_list))
            for r in records:
                writer.writerow(r.csv_row(cfg.p_list))
    mismatches = [r.d for r in records if r.h_oracle is not None and r.h_oracle != r.h]
    if mismatches:
        print(f"oracle mismatches at d={mismatches}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args) -> int:
    with open(args.in_path, "r", encoding="utf-8") as fh:
        records = [ScanRecord.from_json_line(line) for line in fh if line.strip()]
    for p in args.p_list:
        print(stats(records, p).to_text())
    return 0


def _cmd_transfer(args) -> int:
    with open(args.table_file, "r", encoding="utf-8") as fh:
        G = FiniteGroup.from_table_text(fh.read())
    H = [int(tok) for tok in args.subgroup.split(",")]
    res = restricted_transfer(G, H)
    print(f"|G|={G.n} |H|={len(res.subgroup)} index={G.n // len(res.subgroup)}")
    print(f"well_defined={res.well_defined_on_quotient} "
          f"hypothesis_holds={res.hypothesis_holds} vanishes={res.vanishes}")
    for rep, img in res.images:
        print(f"Ver({rep}) = {img}")
    ok = True
    if res.hypothesis_holds:
        diag = diagram_check(G, H)
        print(f"diagram_commutes={diag.commutes}")
        ok = diag.commutes and not res.vanishing_discrepancy
        if res.vanishing_discrepancy:
            print("discrepancy: hypothesis holds but the transfer does not vanish")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.scenario == "ex79":
        return _print_report(harness.verify_example_79())
    if args.scenario == "appendixa":
        return _print_report(harness.reproduce_appendix_a())
    # thm14: order of the class above l vs the norm index at proper conductors
    missing = [k for k in ("d", "l", "p", "qmax") if getattr(args, k) is None]
    if missing:
        print(f"verify thm14 requires --{' --'.join(missing)}", file=sys.stderr)
        return 2
    F = make_field(args.d)
    cmp_ = normtest.verify_class_order(F, args.l, args.p, args.n, args.qmax)
    print(f"d={cmp_.d} l={cmp_.ell} class_order={cmp_.class_order} "
          f"p_part={cmp_.class_order_p_part}")
    for rec in cmp_.records:
        state = "proper" if rec.proper else "not-proper"
        idx = "-" if rec.index is None else str(rec.index)
        print(f"q={rec.q} {state} index={idx}")
    print(f"agreement={cmp_.agreement}")
    return 0 if cmp_.agreement else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "field": _cmd_field,
        "unit": _cmd_unit,
        "classgroup": _cmd_classgroup,
        "ext": _cmd_ext,
        "normindex": _cmd_normindex,
        "detect": _cmd_detect,
        "stats": _cmd_stats,
        "transfer": _cmd_transfer,
        "verify": _cmd_verify,
    }
    try:
        if args.command == "scan":
            return _cmd_scan(args, args.config)
        return handlers[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
