"""End-to-end CLI checks: envelopes, formats, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import youngbounds
from youngbounds import HermitianMatrix, catalog, cli, verify, write_matrix
from youngbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def run_csv(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    return code, list(csv.reader(io.StringIO(out))), err


@pytest.fixture
def scalar_pair(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_matrix(a, HermitianMatrix.diagonal([1.0]))
    write_matrix(b, HermitianMatrix.diagonal([4.0]))
    return str(a), str(b)


@pytest.fixture
def end_hitting_pair(tmp_path):
    a = tmp_path / "a3.txt"
    b = tmp_path / "b3.txt"
    write_matrix(a, HermitianMatrix.identity(3))
    write_matrix(b, HermitianMatrix.diagonal([2.0, 6.0, 3.0]))
    return str(a), str(b)


def test_help_and_missing_subcommand():
    assert main(["--help"]) == 0
    assert main([]) == 2


def test_eval_json_envelope(capsys):
    code, env, err = run_json(capsys, "eval", "--bound", "T31-poly", "--t", "4", "--v", "0.5")
    assert code == 0
    assert env["schema_version"] == "2"
    assert env["command"] == "eval"
    assert env["status"] == "ok"
    res = env["results"]
    assert res["bound_id"] == "T31-poly" and res["side"] == "upper"
    assert res["point"] == {"t": 4.0, "v": 0.5}
    assert res["ratio_value"] == 1.25 and res["bound_value"] == 1.5625
    assert res["holds"] is True and res["tol"] == 1e-12
    assert env["inputs"]["bound"] == "T31-poly"
    assert "func" not in env["inputs"] and "command" not in env["inputs"]
    assert "margin" in err


# The envelope bytes of an eval whose values are exact, pinned so that a change
# to how its records are built cannot change them.
EVAL_T31_JSON = """{
  "schema_version": "2",
  "command": "eval",
  "inputs": {
    "bound": "T31-poly",
    "r": null,
    "t": 4.0,
    "v": 0.5
  },
  "results": {
    "bound_id": "T31-poly",
    "side": "upper",
    "point": {
      "t": 4.0,
      "v": 0.5
    },
    "r": null,
    "ratio_value": 1.25,
    "bound_value": 1.5625,
    "margin": 0.3125,
    "holds": true,
    "tol": 1e-12
  },
  "status": "ok"
}
"""
EVAL_T31_CSV = """bound_id,t,v,r,ratio_value,bound_value,margin,holds,tol
T31-poly,4.0,0.5,None,1.25,1.5625,0.3125,true,1e-12
"""


def test_eval_envelope_bytes(capsys):
    argv = ("eval", "--bound", "T31-poly", "--t", "4", "--v", "0.5")
    summary = "eval T31-poly at (t=4, v=0.5): ratio 1.25, bound 1.5625, margin 0.3125, holds\n"
    assert run(capsys, *argv) == (0, EVAL_T31_JSON, summary)
    assert run(capsys, *argv, "--format", "csv") == (0, EVAL_T31_CSV, summary)


def _generated_init(cls):
    """cls as a frozen dataclass with the generated __init__: the reference."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


@pytest.mark.parametrize("argv, module, name", [
    (("eval", "--bound", "C33-expr", "--t", "0.3", "--v", "0.4"), catalog, "Certificate"),
    (("eval", "--bound", "FM-m", "--t", "0.7", "--v", "0.2"), catalog, "Certificate"),
    (("remarks",), verify, "RemarkRow"),
], ids=["eval-C33-expr", "eval-FM-m", "remarks"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_envelopes_do_not_depend_on_the_record_constructor(capsys, monkeypatch, argv, module,
                                                          name, fmt):
    written = run(capsys, *argv, "--format", fmt)
    monkeypatch.setattr(module, name, _generated_init(getattr(module, name)))
    assert run(capsys, *argv, "--format", fmt) == written


def test_eval_reports_default_deformation(capsys):
    code, env, _ = run_json(capsys, "eval", "--bound", "C33-expr", "--t", "0.5", "--v", "0.5")
    assert code == 0 and env["results"]["r"] == 1.0
    code, env, _ = run_json(capsys, "eval", "--bound", "C33-expr", "--t", "0.5", "--v", "0.5",
                            "--r", "0.25")
    assert code == 0 and env["results"]["r"] == 0.25


def test_eval_csv_matches_json(capsys):
    args = ("eval", "--bound", "FM-M", "--t", "0.25", "--v", "0.25")
    code, env, _ = run_json(capsys, *args)
    code2, rows, _ = run_csv(capsys, *args)
    assert code == code2 == 0
    assert rows[0] == ["bound_id", "t", "v", "r", "ratio_value", "bound_value",
                       "margin", "holds", "tol"]
    res = env["results"]
    assert rows[1][0] == "FM-M"
    assert rows[1][3] == "None"
    assert float(rows[1][4]) == res["ratio_value"]
    assert float(rows[1][5]) == res["bound_value"]
    assert float(rows[1][6]) == res["margin"]
    assert rows[1][7] == "true"


def test_eval_json_handles_infinite_values(capsys):
    # At t = 1e200 the square (t - 1)^2 overflows; it must give inf, not raise.
    for t in ("1e-300", "1e200"):
        code, env, _ = run_json(capsys, "eval", "--bound", "D1-exp", "--t", t, "--v", "0.5")
        assert code == 0, t
        assert env["results"]["bound_value"] == math.inf
        assert env["results"]["holds"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bound,t,v", [
    ("C38-hi", "1e-300", "0.3"), ("C38-hi", "1e200", "0.3"), ("C38-hi", "1.7e308", "0.3"),
    ("K-lower", "1e200", "0"), ("K-lower", "1e200", "1"), ("FM-M", "1e-300", "0.3"),
])
def test_eval_past_overflow_writes_one_stderr_line(capsys, bound, t, v):
    # the envelope reports inf and nan; numpy's warnings must not reach stderr
    code, env, err = run_json(capsys, "eval", "--bound", bound, "--t", t, "--v", v)
    assert code == (1 if bound == "K-lower" else 0)
    assert env["status"] == ("violation" if code else "ok")
    assert len(err.splitlines()) == 1 and err.startswith(f"eval {bound} at ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_exp_overflow_writes_one_stderr_line(capsys):
    # D1-exp overflows past t ~ 2.8e3 at v = 1/2; main, not the kernel, silences it
    code, env, err = run_json(capsys, "eval", "--bound", "D1-exp", "--t", "1e4", "--v", "0.5")
    assert code == 0 and env["results"]["bound_value"] == math.inf
    assert len(err.splitlines()) == 1 and err.startswith("eval D1-exp at ")


def test_eval_error_exits(capsys):
    code, env, err = run_json(capsys, "eval", "--bound", "FM-M", "--t", "2", "--v", "0.5")
    assert code == 3
    assert env["status"] == "error"
    assert env["results"]["error"]["type"] == "RegionError"
    assert err.startswith("error:")

    # R is compared with, not a bound: "ratio" is as unknown as any other id.
    for bound in ("no-such", "ratio"):
        code, _, _ = run(capsys, "eval", "--bound", bound, "--t", "1", "--v", "0.5")
        assert code == 2

    code, env, _ = run_json(capsys, "eval", "--bound", "C33-expr", "--t", "0.5", "--v", "0.5",
                            "--r", "-0.5")
    assert code == 3 and env["results"]["error"]["type"] == "DomainError"

    code, env, _ = run_json(capsys, "eval", "--bound", "T31-poly", "--t", "-1", "--v", "0.5")
    assert code == 3


def test_error_envelope_csv(capsys):
    code, rows, err = run_csv(capsys, "eval", "--bound", "FM-M", "--t", "2", "--v", "0.5")
    assert code == 3
    assert rows[0] == ["error_type", "message"]
    assert rows[1][0] == "RegionError"


def test_remarks_json(capsys):
    code, env, err = run_json(capsys, "remarks")
    assert code == 0 and env["status"] == "ok"
    rows = env["results"]["rows"]
    assert len(rows) == 15
    assert env["results"]["max_abs_error"] <= 1e-6
    assert env["results"]["tolerance"] == 1e-6
    assert "15 rows" in err


def test_remarks_csv_matches_json(capsys):
    code, env, _ = run_json(capsys, "remarks")
    code2, rows, _ = run_csv(capsys, "remarks")
    assert code == code2 == 0
    assert rows[0] == ["label", "paper_value", "computed", "abs_error"]
    assert len(rows) == 16
    for json_row, csv_row in zip(env["results"]["rows"], rows[1:]):
        assert csv_row[0] == json_row["label"]
        assert float(csv_row[1]) == json_row["paper_value"]
        assert float(csv_row[2]) == json_row["computed"]
        assert float(csv_row[3]) == json_row["abs_error"]


def test_json_round_trip_is_stable(capsys):
    _, out, _ = run(capsys, "remarks")
    env = json.loads(out)
    assert json.loads(json.dumps(env)) == env


def test_sweep_defaults(capsys):
    code, env, err = run_json(capsys, "sweep", "--bound", "T31-poly", "--nt", "50", "--nv", "26")
    assert code == 0 and env["status"] == "ok"
    res = env["results"]
    assert res["n_points"] == 1300 and res["n_violations"] == 0
    assert res["region"]["t_min"] == 1e-3 and res["region"]["t_max"] == 1e3
    assert res["region"]["t_scale"] == "log"
    assert env["inputs"]["tol"] == 1e-12
    assert "0 violations" in err


def test_sweep_window_follows_validity_region(capsys):
    code, env, _ = run_json(capsys, "sweep", "--bound", "FM-m", "--nt", "40", "--nv", "11")
    assert code == 0
    assert env["results"]["region"]["t_max"] == 1.0
    assert env["results"]["region"]["t_min"] == 1e-3
    code, env, _ = run_json(capsys, "sweep", "--bound", "T36-lo-ge1", "--nt", "40", "--nv", "11")
    assert code == 0
    assert env["results"]["region"]["t_min"] == 1.0
    assert env["results"]["region"]["t_max"] == 1e3


def test_sweep_deformed_entry(capsys):
    code, env, _ = run_json(capsys, "sweep", "--bound", "C38-lo", "--r", "-0.5",
                            "--nt", "30", "--nv", "11")
    assert code == 0 and env["results"]["n_violations"] == 0
    assert env["inputs"]["r"] == -0.5


def test_sweep_linear_scale(capsys):
    code, env, _ = run_json(capsys, "sweep", "--bound", "T36-hi-ge1", "--t-min", "1",
                            "--t-max", "10", "--no-log-t", "--nt", "10", "--nv", "11")
    assert code == 0
    assert env["results"]["region"]["t_scale"] == "linear"


def test_sweep_csv_matches_json(capsys):
    args = ("sweep", "--bound", "K-upper", "--nt", "20", "--nv", "11")
    code, env, _ = run_json(capsys, *args)
    code2, rows, _ = run_csv(capsys, *args)
    assert code == code2 == 0
    assert rows[0] == ["bound_id", "n_points", "n_violations", "min_margin",
                       "argmin_t", "argmin_v"]
    res = env["results"]
    assert float(rows[1][3]) == res["min_margin"]
    assert float(rows[1][4]) == res["argmin_point"]["t"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_nan_margins_exit_violation(capsys):
    code, env, err = run_json(capsys, "sweep", "--bound", "D1-exp", "--t-max", "1e300",
                              "--nt", "50", "--nv", "11")
    assert code == 1 and env["status"] == "violation"
    assert env["results"]["n_violations"] == 48
    assert math.isnan(env["results"]["min_margin"])
    assert "48 violations" in err


def test_sweep_error_exits(capsys):
    code, _, err = run(capsys, "sweep", "--bound", "T31-poly", "--nt", "1")
    assert code == 2 and "at least 2x2" in err
    code, _, _ = run(capsys, "sweep", "--bound", "unknown")
    assert code == 2
    code, env, _ = run_json(capsys, "sweep", "--bound", "FM-m", "--t-max", "2")
    assert code == 3 and env["results"]["error"]["type"] == "RegionError"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_sweep_invalid_tolerance_exits_domain(capsys, tol):
    code, env, _ = run_json(capsys, "sweep", "--bound", "T31-poly", "--tol", tol)
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"]["type"] == "DomainError"


def test_witness_found(capsys):
    code, env, err = run_json(capsys, "witness", "--diff", "diff-u1")
    assert code == 0 and env["status"] == "ok"
    res = env["results"]
    assert res["diff_id"] == "diff-u1"
    assert res["value_pos"] > 1e-3
    assert res["value_neg"] < -1e-3
    assert res["delta"] == 1e-3
    assert "witness diff-u1" in err


def test_witness_preset_delta_per_difference(capsys):
    code, env, _ = run_json(capsys, "witness", "--diff", "diff-l1")
    assert code == 0
    assert env["results"]["delta"] == 1e-4


def test_witness_csv_matches_json(capsys):
    args = ("witness", "--diff", "diff-l1")
    code, env, _ = run_json(capsys, *args)
    code2, rows, _ = run_csv(capsys, *args)
    assert code == code2 == 0
    assert rows[0] == ["diff_id", "t_pos", "v_pos", "value_pos",
                       "t_neg", "v_neg", "value_neg", "delta"]
    res = env["results"]
    assert float(rows[1][3]) == res["value_pos"]
    assert float(rows[1][6]) == res["value_neg"]


def test_witness_not_found_exit(capsys):
    code, env, err = run_json(capsys, "witness", "--diff", "diff-l",
                              "--t-min", "0.9", "--t-max", "1.1",
                              "--v-min", "0.49", "--v-max", "0.51", "--delta", "0.5")
    assert code == 4
    assert env["status"] == "error"
    assert env["results"]["error"]["type"] == "witness-not-found"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_witness_nan_in_coarse_grid_is_skipped(capsys):
    code, env, err = run_json(capsys, "witness", "--diff", "diff-l", "--t-max", "1e300")
    assert code == 0 and env["status"] == "ok"
    res = env["results"]
    # neither NaN nor the -inf where D1-exp overflows is a witness value
    assert math.isfinite(res["value_pos"]) and math.isfinite(res["value_neg"])
    assert res["value_pos"] > 1e-3 and res["value_neg"] < -1e-3
    assert "nan" not in err and "inf" not in err


def test_witness_past_overflow_writes_one_stderr_line():
    # stderr is one summary line: numpy's overflow warnings must not reach it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(youngbounds.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "youngbounds.cli", "witness", "--diff", "diff-l",
         "--t-max", "1e300"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("witness diff-l: ")
    assert math.isfinite(json.loads(proc.stdout)["results"]["value_neg"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_witness_all_nan_window_exits_not_found(capsys):
    code, env, _ = run_json(capsys, "witness", "--diff", "diff-l",
                            "--t-min", "1e200", "--t-max", "1e300")
    assert code == 4 and env["status"] == "error"
    assert env["results"]["error"]["type"] == "witness-not-found"
    assert "is NaN" in env["results"]["error"]["message"]


def test_witness_usage_and_domain_errors(capsys):
    code, env, _ = run_json(capsys, "witness", "--diff", "diff-ropt")
    assert code == 3  # r is required for the optimality probe
    code, _, err = run(capsys, "witness", "--diff", "diff-u1", "--depth", "-1")
    assert code == 2
    code, _, _ = run(capsys, "witness", "--diff", "diff-u1", "--nv", "0")
    assert code == 2


@pytest.mark.parametrize("r", ["0.5", "nan"])
def test_witness_r_on_a_difference_without_r_exits_domain(capsys, r):
    # As eval's --r on a fixed-r row and operator's flags for the other claim:
    # an r the difference would ignore is a domain error, not dropped.
    code, env, err = run_json(capsys, "witness", "--diff", "diff-l", f"--r={r}")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"] == {"type": "DomainError",
                                       "message": "diff-l takes no --r"}
    assert err == "error: diff-l takes no --r\n"


@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
def test_witness_non_finite_r_exits_domain(capsys, r):
    code, env, _ = run_json(capsys, "witness", "--diff", "diff-ropt", f"--r={r}")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"] == {"type": "DomainError",
                                       "message": f"diff-ropt requires a finite r, got {r}"}


@pytest.mark.parametrize("delta", ["-1", "nan"])
def test_witness_invalid_delta_exits_domain(capsys, delta):
    code, env, _ = run_json(capsys, "witness", "--diff", "diff-u2", "--delta", delta,
                            "--t-min", "0.9", "--t-max", "1", "--v-max", "0.01")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"]["type"] == "DomainError"


def test_negative_values_in_exponent_form_read_as_values(capsys):
    # argparse alone reads only -<digits>[.<digits>] as a negative number
    base = ("eval", "--bound", "C38-lo", "--t", "2", "--v", "0.5")
    spaced = run(capsys, *base, "--r", "-1e-3")
    assert spaced[0] == 0
    assert spaced == run(capsys, *base, "--r=-1e-3")
    code, env, _ = run_json(capsys, "sweep", "--bound", "T31-poly", "--tol", "-1e-3")
    assert code == 3 and env["inputs"]["tol"] == -1e-3
    code, env, _ = run_json(capsys, *base, "--r", "-inf")
    assert code == 3 and env["results"]["error"]["type"] == "DomainError"
    assert env["inputs"]["r"] == -math.inf


def test_operator_invalid_tolerance_exits_domain(capsys, scalar_pair):
    a, b = scalar_pair
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", "one", "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4", "--tol", "nan")
    assert code == 3 and env["results"]["error"]["type"] == "DomainError"


def test_operator_claim_one(capsys, scalar_pair):
    a, b = scalar_pair
    code, env, err = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                              "--claim", "one", "--m", "1", "--mprime", "1",
                              "--Mprime", "4", "--M", "4")
    assert code == 0 and env["status"] == "ok"
    assert env["results"]["dim"] == 1
    assert env["results"]["h"] == 4.0 and env["results"]["h_prime"] == 4.0
    (cert,) = env["results"]["certificates"]
    assert cert["claim_id"] == "corollary-one"
    assert cert["scalar_factor"] == pytest.approx(1.5625, rel=1e-14)
    assert cert["min_eigen_margin"] == pytest.approx(0.2, rel=1e-12)
    assert cert["holds"] is True and cert["variant"] is None
    assert "corollary-one" in err


def test_operator_claim_two_defaults(capsys, scalar_pair):
    a, b = scalar_pair
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", "two", "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4")
    assert code == 0
    lower, upper = env["results"]["certificates"]
    assert lower["claim_id"] == "corollary-two-lower"
    assert upper["claim_id"] == "corollary-two-upper"
    assert lower["variant"] == "as-stated"
    assert lower["scalar_factor"] == pytest.approx(128.0 / 119.0, rel=1e-14)
    assert upper["scalar_factor"] == pytest.approx(2.125, rel=1e-14)
    assert lower["holds"] and upper["holds"]


def test_operator_violation_exit_and_variant_rescue(capsys, end_hitting_pair):
    a, b = end_hitting_pair
    base = ("operator", "--a", a, "--b", b, "--v", "0.4", "--claim", "two",
            "--m", "1", "--mprime", "1", "--Mprime", "2", "--M", "6")
    code, env, err = run_json(capsys, *base)
    assert code == 1 and env["status"] == "violation"
    lower, upper = env["results"]["certificates"]
    assert not lower["holds"] and not upper["holds"]
    assert "VIOLATED" in err

    code, env, _ = run_json(capsys, *base, "--variant", "interval-extremal")
    assert code == 0 and env["status"] == "ok"
    lower, upper = env["results"]["certificates"]
    assert lower["holds"] and upper["holds"]
    assert lower["variant"] == "interval-extremal"


def test_operator_case_two_swaps_roles(capsys, tmp_path):
    big = tmp_path / "big.txt"
    small = tmp_path / "small.txt"
    write_matrix(big, HermitianMatrix.diagonal([3.0, 4.0]))
    write_matrix(small, HermitianMatrix.diagonal([1.0, 1.4]))
    code, env, _ = run_json(capsys, "operator", "--a", str(big), "--b", str(small),
                            "--v", "0.3", "--claim", "one", "--m", "1", "--mprime", "1.5",
                            "--Mprime", "3", "--M", "4", "--case", "ii")
    assert code == 0 and env["status"] == "ok"


def test_operator_csv(capsys, scalar_pair):
    a, b = scalar_pair
    code, rows, _ = run_csv(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", "two", "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4")
    assert code == 0
    assert rows[0] == ["claim_id", "variant", "scalar_factor", "min_eigen_margin",
                       "holds", "tol"]
    assert len(rows) == 3
    assert rows[1][0] == "corollary-two-lower"
    assert rows[2][0] == "corollary-two-upper"
    assert rows[1][4] == "true"


def test_eval_c38_lo_rejects_r_zero(capsys):
    # exp_r at r = 0 is the upper-side limit; the lower entry takes -1 <= r < 0.
    code, env, _ = run_json(capsys, "eval", "--bound", "C38-lo", "--t", "2", "--v", "0.5",
                            "--r", "0")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"] == {
        "type": "DomainError", "message": "C38-lo requires r in [-1.0, 0.0), got 0.0"}


@pytest.mark.parametrize("claim, flag", [("two", "--r=0.5"), ("one", "--r1=-0.5"),
                                         ("one", "--r2=0.5")])
def test_operator_rejects_the_other_claims_r(capsys, scalar_pair, claim, flag):
    a, b = scalar_pair
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", claim, flag, "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"] == {
        "type": "DomainError", "message": f"claim {claim} takes no {flag.split('=')[0]}"}


def test_operator_error_exits(capsys, scalar_pair, tmp_path):
    a, b = scalar_pair
    # declared sandwich does not match the matrices
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", "one", "--m", "2", "--mprime", "2",
                            "--Mprime", "4", "--M", "4")
    assert code == 3 and env["results"]["error"]["type"] == "SandwichViolationError"
    # inconsistent sandwich constants
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                            "--claim", "one", "--m", "3", "--mprime", "2",
                            "--Mprime", "4", "--M", "4")
    assert code == 3 and env["results"]["error"]["type"] == "SandwichViolationError"
    # missing matrix file
    missing = str(tmp_path / "missing.txt")
    code, env, _ = run_json(capsys, "operator", "--a", missing, "--b", missing,
                            "--v", "0.5", "--claim", "one", "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4")
    assert code == 3 and env["results"]["error"]["type"] == "FileNotFoundError"
    # bad weight
    code, env, _ = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "1.5",
                            "--claim", "one", "--m", "1", "--mprime", "1",
                            "--Mprime", "4", "--M", "4")
    assert code == 3 and env["results"]["error"]["type"] == "DomainError"


def test_operator_non_ascii_matrix_file_exits_domain(capsys, scalar_pair, tmp_path):
    _, b = scalar_pair
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbfdim 1\n1\n")
    code, env, err = run_json(capsys, "operator", "--a", str(bom), "--b", b, "--v", "0.5",
                              "--claim", "one", "--m", "1", "--mprime", "1",
                              "--Mprime", "4", "--M", "4")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"] == {"type": "DomainError",
                                       "message": f"{bom}: non-ASCII byte 0xef"}
    assert err == f"error: {bom}: non-ASCII byte 0xef\n"


@pytest.mark.parametrize("claim, variant, claim_id", [
    ("one", "as-stated", "corollary-one"),
    ("two", "interval-extremal", "corollary-two-upper"),
])
def test_operator_past_overflow_exits_domain(capsys, scalar_pair, claim, variant, claim_id):
    # h = 1e160: the claim's square overflows; an error, not a verdict or a traceback.
    a, b = scalar_pair
    code, env, err = run_json(capsys, "operator", "--a", a, "--b", b, "--v", "0.5",
                              "--claim", claim, "--variant", variant, "--m", "1",
                              "--mprime", "1", "--Mprime", "2", "--M", "1e160")
    assert code == 3 and env["status"] == "error"
    assert env["results"]["error"]["type"] == "DomainError"
    assert env["results"]["error"]["message"].startswith(
        f"{claim_id}: no finite scalar factor at h = 1e+160")
    assert len(err.splitlines()) == 1


def test_main_builds_the_parser_once(capsys, monkeypatch):
    calls = []
    fresh = cli.build_parser

    def counting():
        calls.append(1)
        return fresh()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        code, env, _ = run_json(capsys, "eval", "--bound", "C33-expr", "--t", "2",
                                "--v", "0.5", "--r", "0.5")
        assert code == 0 and env["inputs"]["r"] == 0.5
        # the shared parser keeps no state from one call to the next
        code, env, _ = run_json(capsys, "eval", "--bound", "C33-expr", "--t", "2", "--v", "0.5")
        assert code == 0 and env["inputs"]["r"] is None
        assert run(capsys, "remarks")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    assert fresh() is not fresh()


def _operator_argv(claim, *extra):
    def argv(pair):
        a, b = pair
        return ("operator", "--a", a, "--b", b, "--v", "0.4", "--claim", claim,
                "--m", "1", "--mprime", "1", "--Mprime", "2", "--M", "6", *extra)
    return argv


# One call per command, verdict and error kind; each maps the end-hitting
# matrix pair to an argument list.
PROJECTION_CALLS = {
    "eval": lambda pair: ("eval", "--bound", "C33-expr", "--t", "0.5", "--v", "0.3"),
    "eval-inf": lambda pair: ("eval", "--bound", "D1-exp", "--t", "1e200", "--v", "0.5"),
    "eval-nan": lambda pair: ("eval", "--bound", "K-lower", "--t", "1e200", "--v", "0"),
    "remarks": lambda pair: ("remarks",),
    "sweep": lambda pair: ("sweep", "--bound", "K-upper", "--nt", "20", "--nv", "11"),
    "sweep-nan": lambda pair: ("sweep", "--bound", "D1-exp", "--t-max", "1e300",
                               "--nt", "50", "--nv", "11"),
    "witness": lambda pair: ("witness", "--diff", "diff-l1"),
    "operator-one": _operator_argv("one"),
    "operator-two": _operator_argv("two"),
    "operator-two-extremal": _operator_argv("two", "--variant", "interval-extremal"),
    "error-region": lambda pair: ("eval", "--bound", "FM-M", "--t", "2", "--v", "0.5"),
    "error-not-found": lambda pair: ("witness", "--diff", "diff-l", "--t-min", "0.9",
                                     "--t-max", "1.1", "--v-min", "0.49", "--v-max", "0.51",
                                     "--delta", "0.5"),
    "error-file": lambda pair: ("operator", "--a", pair[0] + ".missing", "--b", pair[1],
                                "--v", "0.4", "--claim", "one", "--m", "1", "--mprime", "1",
                                "--Mprime", "2", "--M", "6"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", PROJECTION_CALLS)
def test_csv_is_the_projection_of_json(capsys, end_hitting_pair, name):
    argv = PROJECTION_CALLS[name](end_hitting_pair)
    code, env, _ = run_json(capsys, *argv)
    code2, rows, _ = run_csv(capsys, *argv)
    assert code == code2
    results = env["results"]
    if env["status"] == "error":
        error = results["error"]
        records = [{"error_type": error["type"], "message": error["message"]}]
    else:
        key = {"remarks": "rows", "operator": "certificates"}.get(env["command"])
        records = [results] if key is None else results[key]
    header, body = rows[0], rows[1:]
    assert len(body) == len(records)
    for record, row in zip(records, body):
        # a point {t, v} under key k is the columns k with "point" read as t and v
        flat = dict(record)
        for key, value in record.items():
            if isinstance(value, dict) and set(value) == {"t", "v"}:
                flat.update((key.replace("point", c), x) for c, x in value.items())
        assert row == [cli._csv_cell(flat[column]) for column in header]


# Every argument list is parsed as build_parser().parse_args(tokens) would:
# the same stdout, stderr and exit code, whichever way main reaches the parser.
DISPATCH_CALLS = {
    "no-tokens": (),
    "help": ("--help",),
    "help-before-command": ("-h", "eval"),
    "command-help": ("eval", "--help"),
    "double-dash-first": ("--", "eval", "--bound", "D1-exp", "--t", "2", "--v", "0.5"),
    "double-dash-after-command": ("eval", "--", "--bound", "D1-exp", "--t", "2", "--v", "0.5"),
    "unknown-command": ("evaluate", "--bound", "D1-exp", "--t", "2", "--v", "0.5"),
    "stray-positional": ("eval", "--bound", "D1-exp", "--t", "2", "--v", "0.5", "extra"),
    "unknown-option": ("eval", "--bound", "D1-exp", "--t", "2", "--v", "0.5", "--bogus"),
    "abbreviation": ("sweep", "--bou", "K-upper", "--nt", "5", "--nv", "3"),
    "option-equals": ("eval", "--bound", "T31-poly", "--t", "4", "--v", "0.5", "--format=csv"),
    "negative-exponent": ("eval", "--bound", "C38-lo", "--t", "2", "--v", "0.5", "--r", "-1e-3"),
    "missing-required": ("eval", "--bound", "D1-exp", "--t", "2"),
    "bad-float": ("eval", "--bound", "D1-exp", "--t", "two", "--v", "0.5"),
    "bad-choice": ("eval", "--bound", "nope", "--t", "2", "--v", "0.5"),
    "remarks-stray": ("remarks", "--t", "2"),
}


@pytest.mark.parametrize("name", DISPATCH_CALLS)
def test_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch, name):
    argv = DISPATCH_CALLS[name]
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda tokens: cli.build_parser().parse_args(tokens))
    assert got == run(capsys, *argv)


def test_unknown_option_is_the_top_level_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--bound", "D1-exp", "--t", "2", "--v", "0.5", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: youngbounds [-h]")
    assert err.endswith("youngbounds: error: unrecognized arguments: --bogus\n")


_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                                                 '\u00e9\u2028\U0001f600')))
_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225e-308, 1.7e308]),
    st.floats().map(np.float64),
)
_JSON_KEYS = st.one_of(_JSON_TEXT, st.none(), st.booleans(), st.integers(), _JSON_FLOATS)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_FLOATS, _JSON_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_JSON_KEYS, children, max_size=4)),
    max_leaves=24)


def _written(obj):
    out = []
    cli._write_json(obj, out)
    return "".join(out)


@settings(deadline=None)
@given(_JSON_VALUES)
def test_json_writer_writes_the_bytes_of_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [object(), np.int64(3), 1j, b"x", {1, 2}, np.ones(2),
                                 {"a": [1, {"b": dataclasses}]}, {"ok": {(1,): 0}},
                                 {"ok": {b"k": 0}}])
def test_json_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as info:
        _written(obj)
    assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, -7, 1.5, -0.0, math.nan, math.inf, -math.inf,
                                 np.float64(0.1), None, True, False])
def test_json_writer_writes_keys_as_json_dumps(key):
    obj = {"ok": {key: 0, "after": [key]}}
    assert _written(obj) == json.dumps(obj, indent=2)
