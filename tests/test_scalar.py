"""Kernel-level checks: value types, mean ratio, Kantorovich constant, exp_r."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbounds import (
    DeformParam,
    EvalPoint,
    HermitianMatrix,
    SandwichSpec,
    certify_corollary_one,
    certify_corollary_two,
    deformed_exp,
    deformed_exp_raw,
    evaluate,
    kantorovich,
    kantorovich_identity_arg,
    young_ratio,
)
from youngbounds.errors import DomainError
from youngbounds.scalar import _ratio

# Log-uniform t across the six-decade working range, plain uniform weight.
log_ts = st.floats(-3.0, 3.0)
weights = st.floats(0.0, 1.0)

relaxed = settings(deadline=None)


def test_point_rejects_bad_t():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            EvalPoint(bad, 0.5)


def test_point_rejects_bad_v():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            EvalPoint(1.0, bad)


def test_point_coerces_to_float():
    p = EvalPoint(2, 1)
    assert isinstance(p.t, float) and p.t == 2.0
    assert isinstance(p.v, float) and p.v == 1.0


def test_deform_param_range():
    assert DeformParam(-1).r == -1.0
    assert DeformParam(1).r == 1.0
    assert DeformParam(0).r == 0.0
    for bad in (-1.5, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            DeformParam(bad)


def test_ratio_known_values():
    assert young_ratio(EvalPoint(1.0, 0.37)) == 1.0
    assert young_ratio(EvalPoint(4.0, 0.5)) == pytest.approx(1.25, rel=1e-15)
    # mpmath at 50 digits
    assert young_ratio(EvalPoint(1e-6, 0.999999)) == pytest.approx(
        1.9999713692123214, rel=1e-13
    )


def test_ratio_endpoint_weights():
    for t in (1e-3, 0.5, 7.0, 1e3):
        assert young_ratio(EvalPoint(t, 0.0)) == 1.0
        assert young_ratio(EvalPoint(t, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_ratio_survives_extreme_t():
    big = young_ratio(EvalPoint(1e300, 0.5))
    tiny = young_ratio(EvalPoint(1e-300, 0.5))
    assert math.isfinite(big) and big > 1e100
    assert math.isfinite(tiny) and tiny > 1e100


@given(log_ts, weights)
@relaxed
def test_ratio_at_least_one(u, v):
    assert young_ratio(EvalPoint(10.0**u, v)) >= 1.0 - 1e-12


@given(log_ts, weights)
@relaxed
def test_ratio_swap_symmetry(u, v):
    t = 10.0**u
    a = young_ratio(EvalPoint(t, v))
    b = young_ratio(EvalPoint(1.0 / t, 1.0 - v))
    assert a == pytest.approx(b, rel=1e-12)


def test_kantorovich_known_values():
    assert kantorovich(1.0) == 1.0
    assert kantorovich(4.0) == 1.5625
    assert kantorovich(0.25) == 1.5625
    for bad in (0.0, -2.0, math.inf):
        with pytest.raises(DomainError):
            kantorovich(bad)


@given(log_ts)
@relaxed
def test_kantorovich_at_least_one_and_symmetric(u):
    t = 10.0**u
    k = kantorovich(t)
    assert k >= 1.0
    assert k == pytest.approx(kantorovich(1.0 / t), rel=1e-12)


def test_identity_arg_known_values():
    assert kantorovich_identity_arg(1.0) == 0.0
    assert kantorovich_identity_arg(4.0) == 2.25
    assert kantorovich_identity_arg(0.25) == 2.25
    with pytest.raises(DomainError):
        kantorovich_identity_arg(-1.0)


def test_identity_arg_matches_four_k_minus_one():
    # (t-1)^2/t and 4(K(t)-1) must agree to a few ulps of max(1, value).
    rng = np.random.default_rng(7)
    ts = np.concatenate([np.geomspace(1e-3, 1e3, 211), 10.0 ** rng.uniform(-3, 3, 500)])
    for t in ts:
        a = kantorovich_identity_arg(float(t))
        b = 4.0 * (kantorovich(float(t)) - 1.0)
        scale = max(1.0, abs(a), abs(b))
        assert abs(a - b) <= 1e-14 * scale
        assert abs(a - b) <= 4.0 * math.ulp(scale)


def test_deformed_exp_exact_special_cases():
    assert deformed_exp(DeformParam(1.0), 3.0) == 4.0
    assert deformed_exp(DeformParam(-1.0), 0.5) == 2.0
    assert deformed_exp(DeformParam(0.5), 4.0) == pytest.approx(9.0, rel=1e-14)
    assert deformed_exp(DeformParam(0.0), 1.0) == pytest.approx(math.e, rel=1e-15)


def test_deformed_exp_at_zero_is_one():
    for r in (-1.0, -0.3, 0.0, 0.4, 1.0):
        assert deformed_exp(DeformParam(r), 0.0) == 1.0


def test_deformed_exp_zero_limit_switch():
    x = 0.7
    assert deformed_exp(DeformParam(1e-23), x) == math.exp(x)
    assert deformed_exp(DeformParam(-1e-23), x) == math.exp(x)


def test_deformed_exp_boundary_values():
    # 1 + r*x = 0 is the edge of the domain, not outside it.
    assert deformed_exp(DeformParam(0.5), -2.0) == 0.0
    assert deformed_exp(DeformParam(-0.5), 2.0) == math.inf
    assert deformed_exp(DeformParam(-1.0), 1.0) == math.inf


def test_kernels_leave_the_callers_error_state_alone():
    # The kernels never enter np.errstate: overflow and the pole at the
    # domain boundary reach the caller as numpy reports them.
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            deformed_exp(DeformParam(0.0), 800.0)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            deformed_exp(DeformParam(-1.0), 1.0)
    with np.errstate(over="ignore"):
        assert deformed_exp(DeformParam(0.0), 800.0) == math.inf


def test_ratio_discards_no_overflowing_branch():
    # Below t ~ 1e-308 the plain form's t^-v overflows; the log form is the
    # one returned there, and the discarded branch must not raise either.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert young_ratio(EvalPoint(5e-324, 1.0)) == 1.0
        values = _ratio(np.array([5e-324, 1e-300, 0.5, 1.0, 7.0, 1e300]), 0.5)
    assert np.isfinite(values).all() and values[3] == 1.0


def test_deformed_exp_rejects_outside_domain():
    with pytest.raises(DomainError):
        deformed_exp(DeformParam(0.5), -2.5)
    with pytest.raises(DomainError):
        deformed_exp(DeformParam(-1.0), 1.5)


def test_deformed_exp_raw_allows_r_above_one():
    assert deformed_exp_raw(1.0, 2.0) == 3.0
    assert deformed_exp_raw(1.001, 2.0) < 3.0
    arr = deformed_exp_raw(1.001, np.array([0.0, 2.0]))
    assert arr.shape == (2,) and arr[0] == 1.0


@given(st.floats(1e-3, 10.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
@relaxed
def test_deformed_exp_decreasing_in_r_positive_regime(x, a, b):
    r1, r2 = sorted((a, b))
    lo = deformed_exp(DeformParam(r2), x)
    hi = deformed_exp(DeformParam(r1), x)
    assert hi >= lo - 1e-12


@given(st.floats(0.0, 1.0), st.floats(-1.0, -1e-3), st.floats(-1.0, -1e-3))
@relaxed
def test_deformed_exp_decreasing_in_r_negative_regime(x, a, b):
    r1, r2 = sorted((a, b))
    lo = deformed_exp(DeformParam(r2), x)
    hi = deformed_exp(DeformParam(r1), x)
    assert hi >= lo - 1e-12


@given(st.floats(0.0, 1.0))
@relaxed
def test_deformed_exp_brackets_classical_exponential(x):
    below = deformed_exp(DeformParam(0.5), x)
    above = deformed_exp(DeformParam(-0.5), x)
    e = math.exp(x)
    assert below <= e * (1.0 + 1e-12)
    assert e <= above * (1.0 + 1e-12)


# The next four are the scalar inequalities the bound kernels lean on;
# each is stated directly and checked at random points.


@given(log_ts, weights)
@relaxed
def test_support_product_exp_upper(u, v):
    # t^(v-1) (t+1) exp(v(1-v)(t-1)^2/t) >= 1 for all t > 0
    t = 10.0**u
    value = t ** (v - 1.0) * (t + 1.0) * math.exp(v * (1.0 - v) * (t - 1.0) ** 2 / t)
    assert value >= 1.0 - 1e-12


@given(st.floats(-3.0, 0.0), weights)
@relaxed
def test_support_product_exp_lower(u, v):
    # t^(v+1) exp((v(1-v)/2)(t-1)^2) <= 1 for t <= 1
    t = 10.0**u
    value = t ** (v + 1.0) * math.exp(0.5 * v * (1.0 - v) * (t - 1.0) ** 2)
    assert value <= 1.0 + 1e-12


@given(weights)
@relaxed
def test_support_weight_inequality(v):
    # (v+1)/2^(v+1) >= v(1-v) on [0, 1]
    assert (v + 1.0) / 2.0 ** (v + 1.0) >= v * (1.0 - v) - 1e-15


@given(st.floats(-3.0, 0.0), weights)
@relaxed
def test_support_midpoint_power_inequality(u, v):
    # ((t+1)/2)^(v+1) >= t^2 for t <= 1
    t = 10.0**u
    assert (0.5 * (t + 1.0)) ** (v + 1.0) >= t * t - 1e-15


# Every owner of a deformation parameter, as (upper, value or certificate at r).
_P = EvalPoint(2.0, 0.5)
_A, _B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([4.0])
_S = SandwichSpec(1.0, 1.0, 4.0, 4.0)
R_OWNERS = {
    "C33-expr": (True, lambda r: evaluate("C33-expr", _P, r)),
    "C38-lo": (False, lambda r: evaluate("C38-lo", _P, r)),
    "C38-hi": (True, lambda r: evaluate("C38-hi", _P, r)),
    "corollary-one": (True, lambda r: certify_corollary_one(_A, _B, 0.5, r, _S)),
    "corollary-two-lower": (False, lambda r: certify_corollary_two(_A, _B, 0.5, r, None, _S)),
    "corollary-two-upper": (True, lambda r: certify_corollary_two(_A, _B, 0.5, None, r, _S)),
}
SIDES = {True: ("(0.0, 1.0]", {0.5, 1.0}), False: ("[-1.0, 0.0)", {-1.0, -0.5})}


@pytest.mark.parametrize("r", [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("owner", R_OWNERS)
def test_each_r_owner_admits_exactly_its_side(owner, r):
    upper, at = R_OWNERS[owner]
    interval, admitted = SIDES[upper]
    if r in admitted:
        assert at(r) == at(DeformParam(r))
    else:
        message = f"{owner} requires r in {interval}, got {r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            at(r)


@pytest.mark.parametrize("owner", R_OWNERS)
def test_omitted_r_is_the_tightest_end(owner):
    upper, at = R_OWNERS[owner]
    assert at(None) == at(1.0 if upper else -1.0)
