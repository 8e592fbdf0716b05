"""Command line front end.

Exit codes: 0 on success, 1 for computation errors (bad fan, out-of-regime
input, failed cross-check, unreadable file), 2 for usage errors. Every
computing subcommand takes --machine for a stable key=value output; numbers
are always exact reduced fractions, never decimals. A warning raised by a
computation prints to stderr as one `warning: <message>` line. A call builds
only its own subcommand's parser; `toriclct -h` lists them all.

_emit renders every key/value field: with --machine as `key=value`, a vector
as `a,b`; otherwise as `key = value` with underscores shown as spaces, a
vector as `(a, b)`. Machine keys: toric lct, max_pairing, witness_vertex,
witness_ray; family <id> status, lct (when known), provenance; family --list
one export table line per family; db and db --import families, exact_all,
exact_general, upper_bound, unknown, fans; db --cross-check one <id>=pass or
<id>=fail line per stored fan, then status; equivariant <key> lct,
provenance; every other computing subcommand lct.

Ray strings list vectors separated by ';' with coordinates separated by ','
(whitespace is ignored); group strings list row-major dim*dim matrices the
same way. A blank ';' part is skipped, as a blank line is in a fan file. An
integer token, here, in any integer list and in any integer option, is an
optional '-' and ASCII digits (geometry._decimal); a threshold argument or
--value is an integer token, optionally followed by '/' or '.' and ASCII
digits (geometry._rational). Any other token is a usage error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from .database import (STATUS_KINDS, _value_text, cross_check_toric,
                       export_table, import_table, load_builtin, lookup,
                       query, status_counts, table_line)
from .errors import ToolkitError
from .formulas import (DelPezzoDescriptor, KNOWN_EQUIVARIANT,
                       cubic_surface_lct, del_pezzo_lct, double_cover_lct,
                       fermat_cse, hypersurface_lct, known_equivariant_lct,
                       monomial_cse, p1_product_lct, product_lct, wps_lct)
from .geometry import _decimal, _rational
from .toric import (GroupAction, RaySet, _ints, _square_matrix,
                    bundle_lct_closed_form, parse_fan, projectivized_bundle_fan,
                    toric_lct, wps_fan)

_STATUS_HUMAN = {
    "exact_all": "exact value for every smooth member",
    "exact_general": "exact value for a general member",
    "upper_bound": "upper bound",
    "unknown": "open",
}

# human labels of the db summary's machine keys
_SUMMARY_HUMAN = {
    "exact_all": "exact for every smooth member",
    "exact_general": "exact for a general member",
    "upper_bound": "upper bound only",
    "unknown": "open",
    "fans": "stored fans",
}


def _emit(out, machine: bool, *fields) -> int:
    """Print (key, value) fields by the rule above; a tuple is a vector.
    Returns 0, the success exit code."""
    for key, value in fields:
        if isinstance(value, tuple):
            parts = [str(c) for c in value]
            value = ",".join(parts) if machine else f"({', '.join(parts)})"
        if machine:
            print(f"{key}={value}", file=out)
        else:
            print(f"{key.replace('_', ' ')} = {value}", file=out)
    return 0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _option(read, what: str):
    """An argparse type= function: read(text), a ValueError becoming a usage
    error that names what was expected (argparse would name the function)."""
    def parse(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}") from None
    return parse


_fraction = _option(lambda text: _rational(text, "value"), "Fraction value")
_integer = _option(_decimal, "integer")
_int_list = _option(_ints, "integer list")
_vector_list = _option(lambda text: [tuple(_ints(part)) for part in text.split(";")
                                     if part.strip()], "vector list")


def _cmd_toric(args, out) -> int:
    group = None
    if args.fan_file is not None:
        rays, group = parse_fan(_read_text(args.fan_file))
        if group is not None and args.group is not None:
            raise ValueError("fan file already carries a group block; drop --group")
    else:
        rays = RaySet(tuple(args.rays))
    if args.group is not None:
        group = GroupAction.generate([_square_matrix(flat, rays.dim)
                                      for flat in args.group])
    report = toric_lct(rays, group)
    if group is not None and not args.machine:
        _emit(out, False, ("group_order", len(group)))
    return _emit(out, args.machine, ("lct", report.lct),
                 ("max_pairing", report.max_pairing),
                 ("witness_vertex", report.witness_vertex),
                 ("witness_ray", report.witness_ray))


def _cmd_wps(args, out) -> int:
    value = wps_lct(args.weights)
    engine = toric_lct(wps_fan(args.weights)).lct
    if engine != value:
        raise ToolkitError(f"engine value {engine} disagrees with formula {value}")
    if not args.machine:
        _emit(out, False, ("weights", tuple(args.weights)))
    return _emit(out, args.machine, ("lct", value))


def _cmd_bundle(args, out) -> int:
    twists = args.twists
    value = bundle_lct_closed_form(args.base_dim, twists)
    engine = toric_lct(projectivized_bundle_fan(args.base_dim, twists)).lct
    if engine != value:
        raise ToolkitError(f"engine value {engine} disagrees with closed form {value}")
    if args.machine:
        return _emit(out, True, ("lct", value))
    return _emit(out, False, ("base_dimension", args.base_dim),
                 ("twists", tuple(twists)), ("closed_form", value),
                 ("fan_engine", engine))


def _cmd_cse(args, out) -> int:
    if args.monomial is not None:
        value = monomial_cse(args.monomial)
    else:
        value = fermat_cse(args.fermat)
    return _emit(out, args.machine, ("lct" if args.machine else "cse", value))


def _lct(value):
    """The handler of a formula subcommand: value(args) as the one field lct."""
    return lambda args, out: _emit(out, args.machine, ("lct", value(args)))


def _cmd_family(args, out) -> int:
    if args.list and args.id is not None:
        raise ValueError("give a family id or --list, not both")
    if not args.list and (args.rank, args.status, args.value) != (None,) * 3:
        raise ValueError("--rank, --status and --value filter --list only")
    db = load_builtin()
    if args.list:
        for r in query(db, rank=args.rank, status_kind=args.status, value=args.value):
            if args.machine:
                print(table_line(r), file=out)
            else:
                print(f"{r.id}  rank={r.id.rank}  {r.status.kind}  "
                      f"{_value_text(r.status.value)}", file=out)
        return 0
    if args.id is None:
        raise ValueError("give a family id (like 3.27) or --list")
    record = lookup(db, args.id)
    kind, value = record.status.kind, record.status.value
    if args.machine:
        fields = [("status", kind), ("lct", value), ("provenance", record.provenance)]
        return _emit(out, True, *(field for field in fields if field[1] is not None))
    print(f"family {record.id}", file=out)
    _emit(out, False, ("rank", record.id.rank), ("status", _STATUS_HUMAN[kind]))
    if kind == "upper_bound":
        print(f"lct <= {value}", file=out)
    elif value is not None:
        _emit(out, False, ("lct", value))
    _emit(out, False, ("provenance", record.provenance))
    if record.fan is not None:
        _emit(out, False, ("fan_rays", len(record.fan)))
    if record.notes:
        _emit(out, False, ("notes", record.notes))
    return 0


def _print_db_summary(db, machine: bool, out) -> int:
    counts = status_counts(db.records)
    fields = [("families", len(db.records)),
              *((kind, counts[kind]) for kind in STATUS_KINDS),
              ("fans", sum(r.fan is not None for r in db.records))]
    if not machine:
        fields = [(_SUMMARY_HUMAN.get(key, key), n) for key, n in fields]
    return _emit(out, machine, *fields)


def _cmd_db(args, out) -> int:
    if args.import_path is not None:
        return _print_db_summary(import_table(_read_text(args.import_path)),
                                 args.machine, out)
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
        return _print_db_summary(db, args.machine, out)
    report = cross_check_toric(db)
    for check in report.checks:
        if args.machine:
            print(f"{check.family}={'pass' if check.passed else 'fail'}", file=out)
        else:
            tail = "ok" if check.passed else "MISMATCH"
            print(f"{check.family}: expected {_value_text(check.expected)}, "
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
    return _emit(out, args.machine, ("lct", entry.value),
                 ("provenance", entry.provenance))


def _toric_args(p) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--rays", type=_vector_list, help="rays like '1,0;0,1;-1,-1'")
    src.add_argument("--fan-file", help="fan file path, or - for stdin")
    p.add_argument("--group", type=_vector_list,
                   help="generator matrices, row-major, like '0,1,1,0'")


def _bundle_args(p) -> None:
    p.add_argument("--base-dim", type=_integer, required=True,
                   help="dimension of the base projective space")
    p.add_argument("--twists", type=_int_list, required=True, help="twist degrees like '1,2'")


def _cse_args(p) -> None:
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--monomial", type=_int_list, help="exponents like '2,3,5'")
    kind.add_argument("--fermat", type=_int_list, help="exponents of a power sum like '2,3,5'")


def _ambient_args(space: str, degree_help: str | None = None):
    """The arguments of hypersurface and double-cover, whose help differs."""
    def arguments(p) -> None:
        p.add_argument("--ambient", type=_integer, required=True,
                       help=f"dimension n of the {space} projective space")
        p.add_argument("--degree", type=_integer, required=True, help=degree_help)
    return arguments


def _dp_args(p) -> None:
    p.add_argument("--degree", type=_integer, required=True)
    p.add_argument("--nodes", type=_integer, choices=(0, 1), default=0)
    flags = p.add_mutually_exclusive_group()
    flags.add_argument("--cuspidal", action="store_true",
                       help="degree 1 with a cuspidal anticanonical curve")
    flags.add_argument("--tacnodal", action="store_true",
                       help="degree 2 with a tacnodal anticanonical curve")
    flags.add_argument("--eckardt", action="store_true",
                       help="cubic surface with an Eckardt point")
    p.add_argument("--deg8", choices=("product", "nonproduct"),
                   help="degree 8 only: quadric surface or one-point blow-up")


def _family_args(p) -> None:
    p.add_argument("id", nargs="?", help="family id like 3.27")
    p.add_argument("--list", action="store_true")
    p.add_argument("--rank", type=_integer)
    p.add_argument("--status", choices=STATUS_KINDS)
    p.add_argument("--value", type=_fraction)


def _db_args(p) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cross-check", action="store_true",
                      help="recompute every stored fan through the engine")
    mode.add_argument("--export", dest="export_path", metavar="PATH",
                      help="write the table (- for stdout)")
    mode.add_argument("--import", dest="import_path", metavar="PATH",
                      help="parse and validate a table (- for stdin)")


# name -> (handler, help text, function adding its arguments), in the order
# that help lists them. The _lct lambdas look their formula up in this
# module's globals at call time, so a rebinding of that name reaches them.
_SUBCOMMANDS = {
    "toric": (_cmd_toric, "threshold of a complete fan", _toric_args),
    "wps": (_cmd_wps, "threshold of a well-formed weighted projective space",
            lambda p: p.add_argument("weights", nargs="+", type=_integer)),
    "bundle": (_cmd_bundle, "threshold of a projectivized split bundle over projective space",
               _bundle_args),
    "cse": (_cmd_cse, "complex singularity exponent at the origin", _cse_args),
    "hypersurface": (_lct(lambda a: hypersurface_lct(a.ambient, a.degree)),
                     "threshold of a smooth low-degree hypersurface", _ambient_args("ambient")),
    "double-cover": (_lct(lambda a: double_cover_lct(a.ambient, a.degree)),
                     "threshold of a double cover of projective space",
                     _ambient_args("covered", "d for a branch divisor of degree 2d")),
    "product": (_lct(lambda a: product_lct(*a.values)),
                "threshold of a product from the two factor thresholds",
                lambda p: p.add_argument("values", nargs=2, type=_fraction)),
    "p1-product": (_lct(lambda a: p1_product_lct(a.value)),
                   "threshold of P1 x X from the threshold of X",
                   lambda p: p.add_argument("value", type=_fraction)),
    "dp": (_lct(lambda a: del_pezzo_lct(DelPezzoDescriptor(
        degree=a.degree, nodes=a.nodes, has_cuspidal_anticanonical=a.cuspidal,
        has_tacnodal_anticanonical=a.tacnodal, has_eckardt_point=a.eckardt,
        degree8_type=a.deg8))), "threshold of a del Pezzo surface", _dp_args),
    "cubic-sing": (_lct(lambda a: cubic_surface_lct(
        [tok.strip() for tok in a.types.split(",") if tok.strip()])),
        "threshold of a cubic surface from its singularity types",
        lambda p: p.add_argument("types", help="comma-separated types like 'A4,A1'")),
    "family": (_cmd_family, "one Fano threefold family record, or --list", _family_args),
    "db": (_cmd_db, "database summary, cross-check, export, import", _db_args),
    "equivariant": (_cmd_equivariant, "tabulated equivariant thresholds (no key: list keys)",
                    lambda p: p.add_argument("key", nargs="?")),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the one subcommand that command names, or else of all of
    them, as help, no command and an unknown command need."""
    parser = argparse.ArgumentParser(
        prog="toriclct",
        description="exact log canonical thresholds: toric engine, closed "
                    "formulas, and the Fano threefold database")
    one = command in _SUBCOMMANDS
    # with one subparser, the top-level usage printed for an unrecognized
    # argument still lists every subcommand; the whole tree keeps no metavar,
    # so that the error for a missing command names `command`
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}" if one else None)
    for name, (handler, help_text, arguments) in _SUBCOMMANDS.items():
        if name == command or not one:
            p = sub.add_parser(name, help=help_text)
            p.add_argument("--machine", action="store_true", help="stable key=value output")
            p.set_defaults(handler=handler)
            arguments(p)
    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # a warning becomes one stderr line, whatever the warning filters say
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.handler(args, out)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=err)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
