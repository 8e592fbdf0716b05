"""Command line front end.

Exit codes: 0 on success, 1 for computation errors (bad fan, out-of-regime
input, failed cross-check, unreadable file), 2 for usage errors. Every
computing subcommand takes --machine for a stable key=value output; numbers
are always exact reduced fractions, never decimals.

Ray strings list vectors separated by ';' with coordinates separated by ','
(whitespace is ignored); group strings list row-major dim*dim matrices the
same way.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from .database import (STATUS_KINDS, cross_check_toric, export_table,
                       import_table, load_builtin, lookup, query,
                       status_counts, table_line)
from .errors import ToolkitError
from .formulas import (DelPezzoDescriptor, KNOWN_EQUIVARIANT,
                       cubic_surface_lct, del_pezzo_lct, double_cover_lct,
                       fermat_cse, hypersurface_lct, known_equivariant_lct,
                       monomial_cse, p1_product_lct, product_lct, wps_lct)
from .toric import (GroupAction, RaySet, _square_matrix, bundle_lct_closed_form,
                    parse_fan, projectivized_bundle_fan, toric_lct, wps_fan)

_STATUS_HUMAN = {
    "exact_all": "exact value for every smooth member",
    "exact_general": "exact value for a general member",
    "upper_bound": "upper bound",
    "unknown": "open",
}


def _vec_h(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _vec_m(v) -> str:
    return ",".join(str(c) for c in v)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _fraction(text: str) -> Fraction:
    # argparse turns only TypeError and ValueError into usage errors
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _vector_list(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(tok) for tok in part.split(","))
            for part in text.split(";") if part.strip()]


def _emit_value(out, machine: bool, value, label: str = "lct") -> int:
    if machine:
        print(f"lct={value}", file=out)
    else:
        print(f"{label} = {value}", file=out)
    return 0


def _cmd_toric(args, out) -> int:
    group = None
    if args.fan_file is not None:
        rays, group = parse_fan(_read_text(args.fan_file))
        if group is not None and args.group:
            raise ValueError("fan file already carries a group block; drop --group")
    else:
        rays = RaySet(tuple(_vector_list(args.rays)))
    if args.group:
        group = GroupAction.generate([_square_matrix(flat, rays.dim)
                                      for flat in _vector_list(args.group)])
    report = toric_lct(rays, group)
    if args.machine:
        print(f"lct={report.lct}", file=out)
        print(f"max_pairing={report.max_pairing}", file=out)
        print(f"witness_vertex={_vec_m(report.witness_vertex)}", file=out)
        print(f"witness_ray={_vec_m(report.witness_ray)}", file=out)
    else:
        if group is not None:
            print(f"group order = {len(group)}", file=out)
        print(f"lct = {report.lct}", file=out)
        print(f"max pairing = {report.max_pairing}", file=out)
        print(f"witness vertex = {_vec_h(report.witness_vertex)}", file=out)
        print(f"witness ray = {_vec_h(report.witness_ray)}", file=out)
    return 0


def _cmd_wps(args, out) -> int:
    value = wps_lct(args.weights)
    engine = toric_lct(wps_fan(args.weights)).lct
    if engine != value:
        raise ToolkitError(f"engine value {engine} disagrees with formula {value}")
    if not args.machine:
        print(f"weights = ({', '.join(str(w) for w in args.weights)})", file=out)
    return _emit_value(out, args.machine, value)


def _cmd_bundle(args, out) -> int:
    twists = _int_list(args.twists)
    value = bundle_lct_closed_form(args.base_dim, twists)
    engine = toric_lct(projectivized_bundle_fan(args.base_dim, twists)).lct
    if engine != value:
        raise ToolkitError(f"engine value {engine} disagrees with closed form {value}")
    if args.machine:
        print(f"lct={value}", file=out)
    else:
        print(f"base dimension = {args.base_dim}", file=out)
        print(f"twists = ({', '.join(str(a) for a in twists)})", file=out)
        print(f"closed form = {value}", file=out)
        print(f"fan engine = {engine}", file=out)
    return 0


def _cmd_cse(args, out) -> int:
    if args.monomial is not None:
        value = monomial_cse(_int_list(args.monomial))
    else:
        value = fermat_cse(_int_list(args.fermat))
    return _emit_value(out, args.machine, value, label="cse")


def _cmd_hypersurface(args, out) -> int:
    return _emit_value(out, args.machine, hypersurface_lct(args.ambient, args.degree))


def _cmd_double_cover(args, out) -> int:
    return _emit_value(out, args.machine, double_cover_lct(args.ambient, args.degree))


def _cmd_product(args, out) -> int:
    return _emit_value(out, args.machine, product_lct(args.values[0], args.values[1]))


def _cmd_p1_product(args, out) -> int:
    return _emit_value(out, args.machine, p1_product_lct(args.value))


def _cmd_dp(args, out) -> int:
    surface = DelPezzoDescriptor(
        degree=args.degree,
        nodes=args.nodes,
        has_cuspidal_anticanonical=args.cuspidal,
        has_tacnodal_anticanonical=args.tacnodal,
        has_eckardt_point=args.eckardt,
        degree8_type=args.deg8,
    )
    return _emit_value(out, args.machine, del_pezzo_lct(surface))


def _cmd_cubic_sing(args, out) -> int:
    types = [tok.strip() for tok in args.types.split(",") if tok.strip()]
    return _emit_value(out, args.machine, cubic_surface_lct(types))


def _cmd_family(args, out) -> int:
    db = load_builtin()
    if args.list:
        for r in query(db, rank=args.rank, status_kind=args.status, value=args.value):
            if args.machine:
                print(table_line(r), file=out)
            else:
                value = "-" if r.status.value is None else str(r.status.value)
                print(f"{r.id}  rank={r.id.rank}  {r.status.kind}  {value}", file=out)
        return 0
    if args.id is None:
        raise ValueError("give a family id (like 3.27) or --list")
    record = lookup(db, args.id)
    if args.machine:
        print(f"status={record.status.kind}", file=out)
        if record.status.value is not None:
            print(f"lct={record.status.value}", file=out)
        print(f"provenance={record.provenance}", file=out)
    else:
        print(f"family {record.id}", file=out)
        print(f"rank = {record.picard_rank}", file=out)
        print(f"status = {_STATUS_HUMAN[record.status.kind]}", file=out)
        if record.status.kind == "upper_bound":
            print(f"lct <= {record.status.value}", file=out)
        elif record.status.value is not None:
            print(f"lct = {record.status.value}", file=out)
        print(f"provenance = {record.provenance}", file=out)
        if record.fan is not None:
            print(f"fan rays = {len(record.fan)}", file=out)
        if record.notes:
            print(f"notes = {record.notes}", file=out)
    return 0


def _print_db_summary(db, machine: bool, out) -> None:
    counts = status_counts(db.records)
    fans = sum(r.fan is not None for r in db.records)
    if machine:
        print(f"families={len(db.records)}", file=out)
        for kind in STATUS_KINDS:
            print(f"{kind}={counts[kind]}", file=out)
        print(f"fans={fans}", file=out)
    else:
        print(f"families = {len(db.records)}", file=out)
        print(f"exact for every smooth member = {counts['exact_all']}", file=out)
        print(f"exact for a general member = {counts['exact_general']}", file=out)
        print(f"upper bound only = {counts['upper_bound']}", file=out)
        print(f"open = {counts['unknown']}", file=out)
        print(f"stored fans = {fans}", file=out)


def _cmd_db(args, out) -> int:
    if args.import_path is not None:
        _print_db_summary(import_table(_read_text(args.import_path)), args.machine, out)
        return 0
    db = load_builtin()
    if args.export_path is not None:
        text = export_table(db)
        if args.export_path == "-":
            out.write(text)
        else:
            Path(args.export_path).write_text(text)
            print(f"wrote {args.export_path}", file=out)
        return 0
    if not args.cross_check:
        _print_db_summary(db, args.machine, out)
        return 0
    report = cross_check_toric(db)
    for check in report.checks:
        if args.machine:
            print(f"{check.family}={'pass' if check.passed else 'fail'}", file=out)
        else:
            expected = "-" if check.expected is None else str(check.expected)
            tail = "ok" if check.passed else "MISMATCH"
            print(f"{check.family}: expected {expected}, "
                  f"computed {check.computed}, {tail}", file=out)
    if args.machine:
        print(f"status={'pass' if report.passed else 'fail'}", file=out)
    else:
        n_pass = sum(1 for c in report.checks if c.passed)
        print(f"fan checks passed = {n_pass}/{len(report.checks)}", file=out)
    return 0 if report.passed else 1


def _cmd_equivariant(args, out) -> int:
    if args.key is None:
        for key in sorted(KNOWN_EQUIVARIANT):
            print(key, file=out)
        return 0
    entry = known_equivariant_lct(args.key)
    if args.machine:
        print(f"lct={entry.value}", file=out)
        print(f"provenance={entry.provenance}", file=out)
    else:
        print(f"lct = {entry.value}", file=out)
        print(f"provenance = {entry.provenance}", file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriclct",
        description="exact log canonical thresholds: toric engine, closed "
                    "formulas, and the Fano threefold database")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--machine", action="store_true",
                       help="stable key=value output")
        p.set_defaults(handler=handler)
        return p

    p = add("toric", _cmd_toric, "threshold of a complete fan")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--rays", help="rays like '1,0;0,1;-1,-1'")
    src.add_argument("--fan-file", help="fan file path, or - for stdin")
    p.add_argument("--group", help="generator matrices, row-major, like '0,1,1,0'")

    p = add("wps", _cmd_wps, "threshold of a well-formed weighted projective space")
    p.add_argument("weights", nargs="+", type=int)

    p = add("bundle", _cmd_bundle, "threshold of a projectivized split bundle over projective space")
    p.add_argument("--base-dim", type=int, required=True,
                   help="dimension of the base projective space")
    p.add_argument("--twists", required=True, help="twist degrees like '1,2'")

    p = add("cse", _cmd_cse, "complex singularity exponent at the origin")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--monomial", help="exponents like '2,3,5'")
    kind.add_argument("--fermat", help="exponents of a power sum like '2,3,5'")

    p = add("hypersurface", _cmd_hypersurface, "threshold of a smooth low-degree hypersurface")
    p.add_argument("--ambient", type=int, required=True,
                   help="dimension n of the ambient projective space")
    p.add_argument("--degree", type=int, required=True)

    p = add("double-cover", _cmd_double_cover, "threshold of a double cover of projective space")
    p.add_argument("--ambient", type=int, required=True,
                   help="dimension n of the covered projective space")
    p.add_argument("--degree", type=int, required=True,
                   help="d for a branch divisor of degree 2d")

    p = add("product", _cmd_product, "threshold of a product from the two factor thresholds")
    p.add_argument("values", nargs=2, type=_fraction)

    p = add("p1-product", _cmd_p1_product, "threshold of P1 x X from the threshold of X")
    p.add_argument("value", type=_fraction)

    p = add("dp", _cmd_dp, "threshold of a del Pezzo surface")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--nodes", type=int, choices=(0, 1), default=0)
    flags = p.add_mutually_exclusive_group()
    flags.add_argument("--cuspidal", action="store_true",
                       help="degree 1 with a cuspidal anticanonical curve")
    flags.add_argument("--tacnodal", action="store_true",
                       help="degree 2 with a tacnodal anticanonical curve")
    flags.add_argument("--eckardt", action="store_true",
                       help="cubic surface with an Eckardt point")
    p.add_argument("--deg8", choices=("product", "nonproduct"),
                   help="degree 8 only: quadric surface or one-point blow-up")

    p = add("cubic-sing", _cmd_cubic_sing, "threshold of a cubic surface from its singularity types")
    p.add_argument("types", help="comma-separated types like 'A4,A1'")

    p = add("family", _cmd_family, "one Fano threefold family record, or --list")
    p.add_argument("id", nargs="?", help="family id like 3.27")
    p.add_argument("--list", action="store_true")
    p.add_argument("--rank", type=int)
    p.add_argument("--status", choices=STATUS_KINDS)
    p.add_argument("--value", type=_fraction)

    p = add("db", _cmd_db, "database summary, cross-check, export, import")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cross-check", action="store_true",
                      help="recompute every stored fan through the engine")
    mode.add_argument("--export", dest="export_path", metavar="PATH",
                      help="write the table (- for stdout)")
    mode.add_argument("--import", dest="import_path", metavar="PATH",
                      help="parse and validate a table (- for stdin)")

    p = add("equivariant", _cmd_equivariant, "tabulated equivariant thresholds (no key: list keys)")
    p.add_argument("key", nargs="?")

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args, out)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


def main() -> int:
    return run()
