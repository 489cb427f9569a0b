"""Command-line front end.

Subcommands: eval (one bound at one point), remarks (recompute the published
comparison table), sweep (grid certification of one bound), witness
(sign-change search for a difference function), operator (matrix-pair
certificates).  Every parsed run prints exactly one machine-readable
envelope to stdout (JSON by default, CSV rows with --format csv) plus a
one-line human summary on stderr.

Exit codes are a stable contract: 0 ok, 1 an inequality failed to hold,
2 usage, 3 domain/region/sandwich/file error, 4 witness not found.
"""

import argparse
import csv
import json
import sys

from . import catalog, operators, verify
from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    RegionError,
    SandwichViolationError,
    WitnessNotFoundError,
)
from .operators import SandwichSpec
from .scalar import DeformParam, EvalPoint

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NOT_FOUND = 4

# Default sweep windows per validity region (t-range clamped to [1e-3, 1e3]).
_SWEEP_WINDOWS = {
    catalog.ALL_T: (1e-3, 1e3),
    catalog.T_LE_1: (1e-3, 1.0),
    catalog.T_GE_1: (1.0, 1e3),
}


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _emit(args, command, results, status, csv_header, csv_rows):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _inputs_echo(args),
        "results": results,
        "status": status,
    }
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([_csv_cell(cell) for cell in row])
    else:
        print(json.dumps(envelope, indent=2))


def _inputs_echo(args):
    skip = ("func", "format", "command")
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit_error(args, error_type, message, exit_code):
    results = {"error": {"type": error_type, "message": message}}
    _emit(args, args.command, results, "error",
          ["error_type", "message"], [[error_type, message]])
    print(f"error: {message}", file=sys.stderr)
    return exit_code


def _point_payload(p):
    return {"t": p.t, "v": p.v}


def _cmd_eval(args):
    point = EvalPoint(args.t, args.v)
    deform = DeformParam(args.r) if args.r is not None else None
    cert = catalog.certify_point(args.bound, point, deform, tol=1e-12)
    spec = catalog.get_bound(args.bound)
    r_used = args.r if args.r is not None else (spec.deform.r if spec.deform else None)
    results = {
        "bound_id": cert.bound_id,
        "side": spec.side,
        "point": _point_payload(cert.point),
        "r": r_used,
        "ratio_value": cert.ratio_value,
        "bound_value": cert.bound_value,
        "margin": cert.margin,
        "holds": cert.holds,
        "tol": cert.tol,
    }
    status = "ok" if cert.holds else "violation"
    _emit(args, "eval", results, status,
          ["bound_id", "t", "v", "r", "ratio_value", "bound_value", "margin", "holds", "tol"],
          [[cert.bound_id, cert.point.t, cert.point.v, r_used, cert.ratio_value,
            cert.bound_value, cert.margin, cert.holds, cert.tol]])
    print(f"eval {cert.bound_id} at (t={cert.point.t:.9g}, v={cert.point.v:.9g}): "
          f"ratio {cert.ratio_value:.9g}, bound {cert.bound_value:.9g}, "
          f"margin {cert.margin:.9g}, {'holds' if cert.holds else 'VIOLATED'}",
          file=sys.stderr)
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def _cmd_remarks(args):
    rows = verify.reproduce_remarks()
    max_err = max(row.abs_error for row in rows)
    ok = max_err <= 1e-6
    results = {
        "rows": [
            {"label": r.label, "paper_value": r.paper_value,
             "computed": r.computed, "abs_error": r.abs_error}
            for r in rows
        ],
        "max_abs_error": max_err,
        "tolerance": 1e-6,
    }
    _emit(args, "remarks", results, "ok" if ok else "violation",
          ["label", "paper_value", "computed", "abs_error"],
          [[r.label, r.paper_value, r.computed, r.abs_error] for r in rows])
    print(f"remarks: {len(rows)} rows, max abs error {max_err:.9g} "
          f"({'within' if ok else 'EXCEEDS'} 1e-06)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _build_region(args, t_window):
    t_min = args.t_min if args.t_min is not None else t_window[0]
    t_max = args.t_max if args.t_max is not None else t_window[1]
    scale = verify.LOG if args.log_t else verify.LINEAR
    return verify.Region(t_min, t_max, args.v_min, args.v_max, scale, args.nt, args.nv)


def _cmd_sweep(args):
    spec = catalog.get_bound(args.bound)
    region = _build_region(args, _SWEEP_WINDOWS[spec.region])
    deform = DeformParam(args.r) if args.r is not None else None
    report = verify.sweep(args.bound, region, args.tol, deform)
    ok = report.n_violations == 0
    results = {
        "bound_id": report.bound_id,
        "region": {
            "t_min": region.t_min, "t_max": region.t_max,
            "v_min": region.v_min, "v_max": region.v_max,
            "t_scale": region.t_scale, "n_t": region.n_t, "n_v": region.n_v,
        },
        "n_points": report.n_points,
        "n_violations": report.n_violations,
        "min_margin": report.min_margin,
        "argmin_point": _point_payload(report.argmin_point),
        "tol": args.tol,
    }
    _emit(args, "sweep", results, "ok" if ok else "violation",
          ["bound_id", "n_points", "n_violations", "min_margin", "argmin_t", "argmin_v"],
          [[report.bound_id, report.n_points, report.n_violations, report.min_margin,
            report.argmin_point.t, report.argmin_point.v]])
    print(f"sweep {report.bound_id}: {report.n_violations} violations over "
          f"{report.n_points} points, min margin {report.min_margin:.9g} at "
          f"(t={report.argmin_point.t:.9g}, v={report.argmin_point.v:.9g})",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_witness(args):
    t_lo, t_hi, preset_delta = verify.DIFF_PRESETS[args.diff]
    delta = args.delta if args.delta is not None else preset_delta
    region = _build_region(args, (t_lo, t_hi))
    witness = verify.find_sign_change(args.diff, region, delta, args.depth, r=args.r)
    results = {
        "diff_id": witness.diff_id,
        "point_pos": _point_payload(witness.point_pos),
        "point_neg": _point_payload(witness.point_neg),
        "value_pos": witness.value_pos,
        "value_neg": witness.value_neg,
        "delta": witness.delta,
    }
    _emit(args, "witness", results, "ok",
          ["diff_id", "t_pos", "v_pos", "value_pos", "t_neg", "v_neg", "value_neg", "delta"],
          [[witness.diff_id, witness.point_pos.t, witness.point_pos.v, witness.value_pos,
            witness.point_neg.t, witness.point_neg.v, witness.value_neg, witness.delta]])
    print(f"witness {witness.diff_id}: +{witness.value_pos:.9g} at "
          f"(t={witness.point_pos.t:.9g}, v={witness.point_pos.v:.9g}) and "
          f"{witness.value_neg:.9g} at (t={witness.point_neg.t:.9g}, "
          f"v={witness.point_neg.v:.9g})", file=sys.stderr)
    return EXIT_OK


def _cert_payload(cert):
    return {
        "claim_id": cert.claim_id,
        "scalar_factor": cert.scalar_factor,
        "min_eigen_margin": cert.min_eigen_margin,
        "holds": cert.holds,
        "variant": cert.variant,
        "tol": cert.tol,
    }


def _cmd_operator(args):
    A = operators.read_matrix(args.a)
    B = operators.read_matrix(args.b)
    spec = SandwichSpec(args.m, args.mprime, args.Mprime, args.M, args.case)
    if args.claim == "one":
        r = args.r if args.r is not None else 1.0
        certs = [operators.certify_corollary_one(A, B, args.v, r, spec, args.tol)]
    else:
        r1 = args.r1 if args.r1 is not None else -1.0
        r2 = args.r2 if args.r2 is not None else 1.0
        certs = list(operators.certify_corollary_two(A, B, args.v, r1, r2, spec,
                                                     args.variant, args.tol))
    ok = all(c.holds for c in certs)
    results = {
        "claim": args.claim,
        "dim": A.dim,
        "h": spec.h,
        "h_prime": spec.h_prime,
        "certificates": [_cert_payload(c) for c in certs],
    }
    _emit(args, "operator", results, "ok" if ok else "violation",
          ["claim_id", "variant", "scalar_factor", "min_eigen_margin", "holds", "tol"],
          [[c.claim_id, c.variant, c.scalar_factor, c.min_eigen_margin, c.holds, c.tol]
           for c in certs])
    for c in certs:
        print(f"{c.claim_id}: factor {c.scalar_factor:.9g}, margin "
              f"{c.min_eigen_margin:.9g}, {'holds' if c.holds else 'VIOLATED'}",
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "nt", 2) < 2 or getattr(args, "nv", 2) < 2:
        print("error: grid must be at least 2x2", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "depth", 0) < 0:
        print("error: depth must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except WitnessNotFoundError as exc:
        return _emit_error(args, "witness-not-found", str(exc), EXIT_NOT_FOUND)
    except (RegionError, DomainError, SandwichViolationError,
            NotPositiveDefiniteError, DimensionMismatchError, OSError) as exc:
        return _emit_error(args, type(exc).__name__, str(exc), EXIT_DOMAIN)


if __name__ == "__main__":
    sys.exit(main())
