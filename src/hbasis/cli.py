"""Single entry point: construct, verify, sidon, complement, bounds, search, table.

Each subcommand handler returns (exit code, payload text) and writes
nothing; `main` is the one place that writes a payload, to stdout or
--emit FILE.  Payloads are byte-identical across reruns with identical
inputs; wall time and other diagnostics go to stderr.  Exit codes: 0
success/verified, 1 verification or optimality failure, 2 infeasible or
invalid parameters, 3 internal guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import __version__
from .arith import GuardError, check_bytes
from .basisfile import (format_document, read_basis_document,
                        read_residue_document, render_value)
from .bounds import bound_reports, rohrbach
from .construct import build_theorem1, plan_params
from .cover import complement_size_bound, gains_bytes, k_complement
from .search import BudgetExhausted, extremal_n, oracle_exhaustive
from .sidon import bose_chowla, is_bk
from .sumset import BasisSet, ResidueSet, layers_bytes, verify_basis


def _document(subcommand: str, params: dict, outcome: int, data: list) -> tuple[int, str]:
    """(outcome, payload): the manifest, its outcome, then the data fields.

    Every `key = value` payload is framed here; a parameter that is None is
    left out of the manifest.
    """
    fields = [("manifest.tool", f"hbasis {__version__}"),
              ("manifest.subcommand", subcommand)]
    fields += [(f"manifest.{k}", v) for k, v in params.items() if v is not None]
    fields.append(("manifest.outcome", outcome))
    return outcome, format_document(fields + data)


def emit_table(rows, columns=None) -> str:
    """Homogeneous result rows to CSV with a stable column order.

    An empty result set yields a header-only document (columns required).
    """
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not rows:
        writer.writerow(columns or [])
        return buf.getvalue()
    if columns is None:
        columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("mixed row kinds rejected; rows must be homogeneous")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([render_value(v) for v in row.values()])
    return buf.getvalue()


def _cmd_verify(args) -> tuple[int, str]:
    with open(args.set) as fh:
        file_h, file_n, elements = read_basis_document(fh.read())
    h = args.h if args.h is not None else file_h
    n = args.n if args.n is not None else file_n
    if h is None or n is None:
        raise ValueError("h and n must come from flags or the basis file")
    basis = BasisSet.from_iterable(elements)
    cert = verify_basis(basis, h, n)
    data = [("h", h), ("n", n), ("elements", basis.elements), ("ok", cert.ok)]
    if cert.first_gap is not None:
        data.append(("first_gap", cert.first_gap))
    return _document("verify", {"h": h, "n": n, "set": args.set},
                     0 if cert.ok else 1, data)


def _cmd_construct(args) -> tuple[int, str]:
    plan = plan_params(args.n, args.h, args.k, args.a)
    result = build_theorem1(plan)
    data = [(f"plan.{name}", getattr(plan, name))
            for name in ("p", "k", "a", "m", "q", "p_prime", "tau", "feasibility")]
    data += [(f"sizes.{comp}", size) for comp, size in result.sizes.items()]
    data += [("ledger.size_ratio", result.size_ratio),
             ("ledger.complement_over_budget", result.complement.over_budget),
             ("verified", result.verified)]
    if result.first_gap is not None:
        data.append(("first_gap", result.first_gap))
    data += [("h", args.h), ("n", args.n), ("elements", result.basis.elements)]
    return _document("construct", {"n": args.n, "h": args.h, "k": plan.k,
                                   "a": plan.a, "mode": plan.feasibility},
                     0 if result.verified else 1, data)


def _cmd_sidon(args) -> tuple[int, str]:
    if args.k >= 2:  # bose_chowla refuses smaller k
        # is_bk's layers, as B lies below p^k - 1; refused before the field walk
        check_bytes(layers_bytes(args.k, args.k * (args.p ** args.k - 2)),
                    f"the B_{args.k} check at p = {args.p}")
    sidon = bose_chowla(args.p, args.k)
    spec = sidon.field
    ok_mod = is_bk(sidon.elements, args.k, sidon.order_modulus)
    ok_int = is_bk(sidon.elements, args.k)
    return _document("sidon", {"p": args.p, "k": args.k},
                     0 if ok_mod and ok_int else 1,
                     [("provenance.p", spec.p), ("provenance.k", spec.k),
                      ("provenance.modulus", spec.modulus),
                      ("k", args.k), ("order_modulus", sidon.order_modulus),
                      ("elements", sidon.elements),
                      ("bk_ok_mod", ok_mod), ("bk_ok_int", ok_int)])


def _cmd_complement(args) -> tuple[int, str]:
    with open(args.set) as fh:
        q, members = read_residue_document(fh.read())
    if args.q is not None and args.q != q:
        raise ValueError("--q disagrees with the residue-set file")
    check_bytes(gains_bytes(q), f"gains over Z_{q}")
    base = ResidueSet.from_iterable(q, members)
    family = k_complement(base, args.k)
    data = [("q", q), ("k", args.k), ("base", base.members)]
    data += [(f"family.{i}", X.members) for i, X in enumerate(family.families, start=1)]
    data += [("family_sizes", family.family_sizes),
             ("total_shifts", family.total_shifts),
             ("union_size", family.union_size),
             ("bound", complement_size_bound(q, len(base), args.k) if q >= 2 else 0),
             ("complete", family.complete),
             ("over_budget", family.over_budget)]
    return _document("complement", {"q": q, "k": args.k, "set": args.set},
                     0 if family.complete else 1, data)


def _cmd_bounds(args) -> tuple[int, str]:
    reports = bound_reports(args.h, k=args.k, n=args.n)
    if args.format == "csv":
        return 0, emit_table({"name": r.name, "direction": r.direction,
                              "value": r.value,
                              "dropped": r.asymptotic_terms_dropped or "",
                              "note": r.note or ""} for r in reports)
    data = []
    for r in reports:
        data.append((f"bound.{r.name}.value", r.value))
        data.append((f"bound.{r.name}.direction", r.direction))
        if r.asymptotic_terms_dropped:
            data.append((f"bound.{r.name}.dropped", r.asymptotic_terms_dropped))
        if r.note:
            data.append((f"bound.{r.name}.note", r.note))
    return _document("bounds", {"h": args.h, "k": args.k, "n": args.n}, 0, data)


def _cmd_search(args) -> tuple[int, str]:
    if args.budget < 1:  # the oracle path ignores the budget, but its manifest records it
        raise ValueError("need node_budget >= 1")
    if args.oracle:
        res = oracle_exhaustive(args.h, args.k)
    else:
        res = extremal_n(args.h, args.k, args.budget)
    return _document("search", {"h": args.h, "k": args.k,
                                "budget": args.budget, "oracle": args.oracle},
                     0 if res.proof_of_optimality else 1,
                     [("h", args.h), ("k", args.k),
                      ("value", res.value), ("elements", res.witness),
                      ("nodes_explored", res.nodes_explored),
                      ("optimal", res.proof_of_optimality)])


def _cmd_table(args) -> tuple[int, str]:
    rows = []
    all_optimal = True
    for k in range(args.k_min, args.k_max + 1):
        # the search's k counts 0, rohrbach's does not (criterion 5's bracket);
        # an unprintable bound is refused before the search
        lo, hi = (0, 1) if k == 1 else rohrbach(args.h, k - 1)
        res = extremal_n(args.h, k, args.budget)
        all_optimal = all_optimal and res.proof_of_optimality
        rows.append({"h": args.h, "k": k, "value": res.value,
                     "rohrbach_lower": lo, "rohrbach_upper": hi,
                     "witness": " ".join(str(x) for x in res.witness)})
    columns = ["h", "k", "value", "rohrbach_lower", "rohrbach_upper", "witness"]
    return 0 if all_optimal else 1, emit_table(rows, columns)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hbasis",
                                     description="additive h-basis toolkit")
    parser.add_argument("--version", action="version", version=f"hbasis {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--emit", metavar="FILE", help="write the payload to FILE")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("construct", help="build and verify a composite h-basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a claimed h-basis file")
    p.add_argument("--h", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--set", required=True, metavar="FILE")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sidon", help="Bose-Chowla B_k set with verification")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_sidon)

    p = sub.add_parser("complement", help="greedy k-complement in Z_q")
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", required=True, metavar="FILE",
                   help="residue-set file (q = ..., members = ...)")
    common(p)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("bounds", help="closed-form bound table")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exact n(h,k) by branch-and-bound")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive oracle instead")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="CSV of search results over a k range")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    common(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code, payload = args.func(args)
        if args.emit:
            with open(args.emit, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except (GuardError, BudgetExhausted, OverflowError) as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - start
        print(f"wall_time_s = {elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
