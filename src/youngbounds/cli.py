"""Command-line front end.

Subcommands: eval (one bound at one point), remarks (recompute the published
comparison table), sweep (grid certification of one bound), witness
(sign-change search for a difference function), operator (matrix-pair
certificates).  Every parsed run prints exactly one machine-readable
envelope to stdout (JSON by default, CSV rows with --format csv) plus a
human summary on stderr, one line per checked claim.  Each command returns
(holds, results, summary); main derives status and exit code from holds, and
the CSV is a projection of the results record (_CSV_LAYOUT).

Exit codes are a stable contract: 0 ok, 1 an inequality failed to hold,
2 usage, 3 domain/region/sandwich/file error, 4 witness not found.
"""

import argparse
import contextlib
import csv
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import catalog, operators, verify
from .errors import DomainError, WitnessNotFoundError, YoungBoundsError
from .operators import SandwichSpec
from .scalar import EvalPoint

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NOT_FOUND = 4

# Default sweep windows per validity region: its t-interval clamped to [1e-3, 1e3].
_SWEEP_WINDOWS = {region: (max(lo, 1e-3), min(hi, 1e3))
                  for region, (lo, hi) in catalog._REGION_T.items()}


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


# The CSV is a projection of the results record: per command, the key of its
# record list in results (None: results is the one record) and the record
# keys that become columns, in order.  Each record is one row.  A point
# {t, v} under key k becomes two columns, k with "point" read as t and as v.
_CSV_LAYOUT = {
    "eval": (None,
             ("bound_id", "point", "r", "ratio_value", "bound_value", "margin", "holds", "tol")),
    "remarks": ("rows", ("label", "paper_value", "computed", "abs_error")),
    "sweep": (None, ("bound_id", "n_points", "n_violations", "min_margin", "argmin_point")),
    "witness": (None, ("diff_id", "point_pos", "value_pos", "point_neg", "value_neg", "delta")),
    "operator": ("certificates",
                 ("claim_id", "variant", "scalar_factor", "min_eigen_margin", "holds", "tol")),
    "error": ("error", ("type", "message")),
}
_CSV_NAMES = {"type": "error_type"}  # column names that differ from their record key


def _write_csv(layout, results):
    key, columns = layout
    records = results if key is None else results[key]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for i, record in enumerate(records if isinstance(records, list) else [records]):
        names, cells = [], []
        for column in columns:
            value = record[column]
            if isinstance(value, dict):
                names += [column.replace("point", coord) for coord in value]
                cells += value.values()
            else:
                names.append(_CSV_NAMES.get(column, column))
                cells.append(value)
        if i == 0:
            writer.writerow(names)
        writer.writerow([_csv_cell(cell) for cell in cells])


_FLOAT_TOKENS = {math.inf: "Infinity", -math.inf: "-Infinity"}  # NaN equals no key


def _json_key(key):
    """key as the string json.dumps writes for a dict key, in json's order of tests."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return float.__repr__(key) if math.isfinite(key) else _FLOAT_TOKENS.get(key, "NaN")
    if key is True or key is False or key is None:
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(obj, out, indent="\n"):
    """Append obj to the list out as json.dumps(obj, indent=2) writes it.

    json.dumps runs its pure-Python encoder whenever indent is set, and that
    cost more than computing most envelopes.  This writes the same bytes:
    ASCII-escaped strings, NaN and +-Infinity as bare tokens, dict keys
    turned into strings as json turns them, and items separated by "," and
    the next level's newline and indent.  indent is the newline and indent
    of obj's own level.
    """
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:  # bool before int
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else _FLOAT_TOKENS.get(obj, "NaN"))
    elif isinstance(obj, dict):
        inner, sep = indent + "  ", "{"
        for key, value in obj.items():
            out.append(sep + inner + _encode_str(_json_key(key)) + ": ")
            _write_json(value, out, inner)
            sep = ","
        out.append(indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = indent + "  ", "["
        for value in obj:
            out.append(sep + inner)
            _write_json(value, out, inner)
            sep = ","
        out.append(indent + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _emit(args, results, status):
    if args.format == "csv":
        _write_csv(_CSV_LAYOUT["error" if status == "error" else args.command], results)
    else:
        out = []
        _write_json({
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": _inputs_echo(args),
            "results": results,
            "status": status,
        }, out)
        print("".join(out))


def _inputs_echo(args):
    skip = ("func", "format", "command")
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _fields(obj):
    """A dataclass as a results record; nested dataclasses become records too."""
    record = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        record[name] = _fields(value) if hasattr(value, "__dataclass_fields__") else value
    return record


def _error(error_type, exc, code):
    return "error", code, {"error": {"type": error_type, "message": str(exc)}}, f"error: {exc}"


def _cmd_eval(args):
    point = EvalPoint(args.t, args.v)
    cert = catalog.certify_point(args.bound, point, args.r, tol=1e-12)
    entry = catalog._lookup(args.bound)
    results = {
        "bound_id": cert.bound_id,
        "side": entry.spec.side,
        "point": _fields(cert.point),
        "r": entry.admit(args.r),
        "ratio_value": cert.ratio_value,
        "bound_value": cert.bound_value,
        "margin": cert.margin,
        "holds": cert.holds,
        "tol": cert.tol,
    }
    summary = (f"eval {cert.bound_id} at (t={cert.point.t:.9g}, v={cert.point.v:.9g}): "
               f"ratio {cert.ratio_value:.9g}, bound {cert.bound_value:.9g}, "
               f"margin {cert.margin:.9g}, {'holds' if cert.holds else 'VIOLATED'}")
    return cert.holds, results, summary


def _cmd_remarks(args):
    rows = verify.reproduce_remarks()
    max_err = max(row.abs_error for row in rows)
    ok = max_err <= 1e-6
    results = {
        "rows": [_fields(row) for row in rows],
        "max_abs_error": max_err,
        "tolerance": 1e-6,
    }
    summary = (f"remarks: {len(rows)} rows, max abs error {max_err:.9g} "
               f"({'within' if ok else 'EXCEEDS'} 1e-06)")
    return ok, results, summary


def _build_region(args, t_window):
    t_min = args.t_min if args.t_min is not None else t_window[0]
    t_max = args.t_max if args.t_max is not None else t_window[1]
    scale = verify.LOG if args.log_t else verify.LINEAR
    return verify.Region(t_min, t_max, args.v_min, args.v_max, scale, args.nt, args.nv)


def _cmd_sweep(args):
    spec = catalog.get_bound(args.bound)
    region = _build_region(args, _SWEEP_WINDOWS[spec.region])
    report = verify.sweep(args.bound, region, args.tol, args.r)
    results = {
        "bound_id": report.bound_id,
        "region": _fields(region),
        "n_points": report.n_points,
        "n_violations": report.n_violations,
        "min_margin": report.min_margin,
        "argmin_point": _fields(report.argmin_point),
        "tol": args.tol,
    }
    summary = (f"sweep {report.bound_id}: {report.n_violations} violations over "
               f"{report.n_points} points, min margin {report.min_margin:.9g} at "
               f"(t={report.argmin_point.t:.9g}, v={report.argmin_point.v:.9g})")
    return report.n_violations == 0, results, summary


def _cmd_witness(args):
    if args.r is not None and not verify._DIFF_BY_ID[args.diff].needs_r:
        raise DomainError(f"{args.diff} takes no --r")
    t_lo, t_hi, preset_delta = verify.DIFF_PRESETS[args.diff]
    delta = args.delta if args.delta is not None else preset_delta
    region = _build_region(args, (t_lo, t_hi))
    w = verify.find_sign_change(args.diff, region, delta, args.depth, r=args.r)
    summary = (f"witness {w.diff_id}: +{w.value_pos:.9g} at "
               f"(t={w.point_pos.t:.9g}, v={w.point_pos.v:.9g}) and "
               f"{w.value_neg:.9g} at (t={w.point_neg.t:.9g}, v={w.point_neg.v:.9g})")
    return True, _fields(w), summary


def _cmd_operator(args):
    stray = [f"--{name}" for name in (("r1", "r2") if args.claim == "one" else ("r",))
             if getattr(args, name) is not None]
    if stray:
        raise DomainError(f"claim {args.claim} takes no {' or '.join(stray)}")
    A = operators.read_matrix(args.a)
    B = operators.read_matrix(args.b)
    spec = SandwichSpec(args.m, args.mprime, args.Mprime, args.M, args.case)
    if args.claim == "one":
        certs = [operators.certify_corollary_one(A, B, args.v, args.r, spec, args.tol)]
    else:
        certs = list(operators.certify_corollary_two(A, B, args.v, args.r1, args.r2, spec,
                                                     args.variant, args.tol))
    results = {
        "claim": args.claim,
        "dim": A.dim,
        "h": spec.h,
        "h_prime": spec.h_prime,
        "certificates": [_fields(c) for c in certs],
    }
    summary = "\n".join(f"{c.claim_id}: factor {c.scalar_factor:.9g}, margin "
                        f"{c.min_eigen_margin:.9g}, {'holds' if c.holds else 'VIOLATED'}"
                        for c in certs)
    return all(c.holds for c in certs), results, summary


def _add_format(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="envelope format on stdout (default json)")


def _add_grid(sub, nt, nv):
    sub.add_argument("--t-min", type=float, default=None, dest="t_min")
    sub.add_argument("--t-max", type=float, default=None, dest="t_max")
    sub.add_argument("--v-min", type=float, default=0.0, dest="v_min")
    sub.add_argument("--v-max", type=float, default=1.0, dest="v_max")
    sub.add_argument("--log-t", action=argparse.BooleanOptionalAction, default=True,
                     dest="log_t", help="log-spaced t grid (default on)")
    sub.add_argument("--nt", type=int, default=nt, help=f"t grid size (default {nt})")
    sub.add_argument("--nv", type=int, default=nv, help=f"v grid size (default {nv})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="youngbounds",
        description="Evaluate and certify mean-ratio bounds, search for "
                    "non-ordering witnesses, and check operator-mean claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # the subcommand parsers by name, filled below

    p_eval = sub.add_parser("eval", help="certify one bound at one point")
    p_eval.add_argument("--bound", required=True, choices=catalog.bound_ids())
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument("--v", type=float, required=True)
    p_eval.add_argument("--r", type=float, default=None,
                        help="deformation parameter for the deformed entries")
    _add_format(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_remarks = sub.add_parser("remarks", help="recompute the published comparison values")
    _add_format(p_remarks)
    p_remarks.set_defaults(func=_cmd_remarks)

    p_sweep = sub.add_parser("sweep", help="certify one bound on a full grid")
    p_sweep.add_argument("--bound", required=True, choices=catalog.bound_ids())
    _add_grid(p_sweep, nt=200, nv=101)
    p_sweep.add_argument("--tol", type=float, default=1e-12)
    p_sweep.add_argument("--r", type=float, default=None)
    _add_format(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_witness = sub.add_parser("witness", help="search for a sign-change witness")
    p_witness.add_argument("--diff", required=True, choices=verify.diff_ids())
    _add_grid(p_witness, nt=41, nv=41)
    p_witness.add_argument("--delta", type=float, default=None,
                           help="sign threshold (default per difference id)")
    p_witness.add_argument("--depth", type=int, default=3,
                           help="refinement rounds (default 3)")
    p_witness.add_argument("--r", type=float, default=None,
                           help="required for diff-ropt")
    _add_format(p_witness)
    p_witness.set_defaults(func=_cmd_witness)

    p_op = sub.add_parser("operator", help="certify an operator-mean claim")
    p_op.add_argument("--a", required=True, help="matrix file for A")
    p_op.add_argument("--b", required=True, help="matrix file for B")
    p_op.add_argument("--v", type=float, required=True)
    p_op.add_argument("--claim", required=True, choices=("one", "two"))
    p_op.add_argument("--r", type=float, default=None, help="claim one (default 1)")
    p_op.add_argument("--r1", type=float, default=None, help="claim two lower (default -1)")
    p_op.add_argument("--r2", type=float, default=None, help="claim two upper (default 1)")
    p_op.add_argument("--m", type=float, required=True)
    p_op.add_argument("--mprime", type=float, required=True)
    p_op.add_argument("--Mprime", type=float, required=True)
    p_op.add_argument("--M", type=float, required=True)
    p_op.add_argument("--case", choices=("i", "ii"), default="i")
    p_op.add_argument("--variant", choices=("as-stated", "interval-extremal"),
                      default="as-stated")
    p_op.add_argument("--tol", type=float, default=1e-10)
    _add_format(p_op)
    p_op.set_defaults(func=_cmd_operator)

    return parser


@functools.cache
def _parser():
    # Parsing does not change the parser, so one serves every call of main.
    return build_parser()


def _parse(tokens):
    """tokens as _parser().parse_args(tokens) reads them, with the same output
    and exit on help or a usage error.

    A call whose first token names a subcommand is parsed by that subcommand's
    parser alone: the top-level pass would only hand it every later token.
    Its leftover tokens are the top-level parser's error, as they are there.
    """
    parser = _parser()
    if tokens:
        sub = parser.commands.get(tokens[0])
        if sub is not None:
            args, extras = sub.parse_known_args(tokens[1:], argparse.Namespace(command=tokens[0]))
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            return args
    return parser.parse_args(tokens)


def main(argv=None):
    # argparse reads only -<digits>[.<digits>] as a negative number and would
    # take any other (-1e-3, -inf) for an option: glue each onto its --name.
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if token.startswith("-") and tokens and tokens[-1].startswith("--") and "=" not in tokens[-1]:
            with contextlib.suppress(ValueError):
                float(token)  # not a number: left for argparse as it stands
                tokens[-1] += "=" + token
                continue
        tokens.append(token)
    try:
        args = _parse(tokens)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "nt", 2) < 2 or getattr(args, "nv", 2) < 2:
        print("error: grid must be at least 2x2", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "depth", 0) < 0:
        print("error: depth must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        # Overflow (exp past t ~ 2.8e3, squares past t ~ 1e154) and NaN are
        # in the envelope; numpy's warnings would only add noise.
        with np.errstate(over="ignore", invalid="ignore"):
            holds, results, summary = args.func(args)
        status, code = ("ok", EXIT_OK) if holds else ("violation", EXIT_VIOLATION)
    except WitnessNotFoundError as exc:
        status, code, results, summary = _error("witness-not-found", exc, EXIT_NOT_FOUND)
    except (YoungBoundsError, OSError) as exc:
        status, code, results, summary = _error(type(exc).__name__, exc, EXIT_DOMAIN)
    _emit(args, results, status)
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
