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
from youngbounds.scalar import _dexp, _ratio

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


# t = 10^u over nearly the whole double range, so R takes its log form at
# most points.  v = k / 2^53 makes 1 - v exact: at t = 1e300 an inexact 1 - v
# alone moves R by far more than rounding.  The worst relative gap measured
# over 10,000 examples was 2.3e-13, about two ulps of log t (|log t| <= 691
# here) carried into R's exponent; the allowance is the in-window one,
# 1e-12, which also passed at 10,000 examples.
@given(st.floats(-300.0, 300.0), st.integers(0, 2**53).map(lambda k: k / 2**53))
@settings(max_examples=1000, deadline=None)
def test_ratio_swap_symmetry_at_extreme_t(u, v):
    t = 10.0**u
    a = young_ratio(EvalPoint(t, v))
    b = young_ratio(EvalPoint(1.0 / t, 1.0 - v))
    assert a == pytest.approx(b, rel=1e-12)


def test_ratio_forms_agree_bitwise_across_block_shapes():
    # A t column wholly outside [1e-3, 1e3] takes the log form alone, one
    # that also holds t = 1 picks it per row, and a float point takes the
    # log form alone: all three must give the same bits.
    ts = np.array([5e-324, 1e-300, 1e-9, 9.99e-4, 1.001e3, 1e9, 1e300, 1.7e308])
    vs = np.array([0.0, 0.5, 1.0, 0.37])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        extreme = _ratio(ts[:, None], vs[None, :])
        mixed = _ratio(np.append(ts, 1.0)[:, None], vs[None, :])
        points = np.array([[_ratio(float(t), float(v)) for v in vs] for t in ts])
    assert extreme.shape == points.shape == (ts.size, vs.size)
    assert extreme.tobytes() == mixed[:-1].tobytes() == points.tobytes()
    assert (mixed[-1] == 1.0).all()


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


@pytest.mark.parametrize("r", [0.5, 1.0, -0.5, -1.0, 1e-23, 1.001])
def test_deformed_exp_raw_takes_an_array_like_x(r):
    want = deformed_exp_raw(r, np.array([0.1, 0.2]))
    for x in ([0.1, 0.2], (0.1, 0.2)):
        got = deformed_exp_raw(r, x)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == want.tobytes()
    assert deformed_exp_raw(r, [[0.1], [0.2]]).shape == (2, 1)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_deformed_exp_raw_rejects_a_non_finite_r(r):
    message = f"deformed_exp_raw requires a finite r, got {r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        deformed_exp_raw(r, 0.5)
    with pytest.raises(DomainError, match="finite r"):
        deformed_exp_raw(r, np.array([0.0, 0.5]))


@pytest.mark.parametrize("r, bad", [(-1.0, 2.0), (0.5, -3.0), (1.0, -1.5), (-0.5, 4.0)])
def test_dexp_domain_check_sees_past_nan(r, bad):
    # One NaN-skipping reduction finds the negative 1 + r*x on either side
    # of a NaN, and in a 2-d block.
    for x in ([math.nan, bad], [bad, math.nan], [[0.0, math.nan], [bad, 0.0]]):
        with pytest.raises(DomainError, match="exp_r undefined"):
            _dexp(r, np.array(x))
    assert np.isnan(_dexp(r, np.array([math.nan, 0.0])))[0]


@pytest.mark.parametrize("r", [1.0, -1.0, 0.5, -0.5, 1e-23])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_dexp_of_an_empty_array_is_empty(r, shape):
    # fmin.reduce has no identity: the check must still pass an empty input.
    out = _dexp(r, np.empty(shape))
    assert isinstance(out, np.ndarray) and out.shape == shape


@pytest.mark.parametrize("r", [1.0, -1.0, 0.5, -0.5, 1e-23, 1.001])
@pytest.mark.parametrize("x", [0.0, 0.3, -0.9, 0.99, 1.0, -1.0, -2.0, 2.0, 800.0, math.nan])
def test_dexp_agrees_on_a_float_a_0d_array_and_a_1_element_array(r, x):
    def outcome(dexp, arg):
        try:
            with np.errstate(all="ignore"):
                return float(np.asarray(dexp(r, arg)).reshape(-1)[0]).hex()
        except DomainError as exc:
            return str(exc)

    def in_place(r, arg):
        _dexp(r, arg, out=arg)
        return arg

    assert outcome(_dexp, x) == outcome(_dexp, np.array(x)) == outcome(_dexp, np.array([x]))
    assert outcome(in_place, np.array([x])) == outcome(_dexp, x)


@pytest.mark.parametrize("r", [0.5, -0.25, 0.75, 1.001])
def test_dexp_domain_edge_is_r_x_equal_to_minus_one(r):
    # Off r = +-1 the check reads r*x once: r*x = -1 exactly (1 + r*x = 0) is
    # admitted, one ulp below -1 raises, on a float, an array and in place.
    x = -1.0 / r
    if r * x != -1.0:
        x = float(np.nextafter(x, 0.0))
    assert r * x == -1.0
    below = float(np.nextafter(-1.0, -np.inf))
    past = below / r
    assert r * past == below
    with np.errstate(all="ignore"):
        for arg in (x, np.array([x, math.nan]), np.array([[0.5], [x]])):
            assert _dexp(r, arg) is not None
            if isinstance(arg, np.ndarray):
                want = _dexp(r, arg).tobytes()
                _dexp(r, arg, out=arg)
                assert arg.tobytes() == want
        message = f"exp_r undefined: 1 + r*x < 0 at r={r}"
        for arg in (past, np.array([math.nan, past]), np.array([[0.5], [past]])):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                _dexp(r, arg)
            if isinstance(arg, np.ndarray):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    _dexp(r, arg, out=arg)


# x >= 0 or NaN, edges first: zero, the least subnormal, the least normal,
# where exp overflows, +inf and NaN.
_NONNEG_X = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 709.79, math.inf,
                                       math.nan]),
                      st.floats(0.0, allow_infinity=True))


@given(st.one_of(st.sampled_from([1.0, 2.0, 1e-22, 5e-324]), st.floats(0.0, 2.0, exclude_min=True)),
       st.lists(_NONNEG_X, min_size=1, max_size=8))
@relaxed
def test_dexp_skips_its_domain_pass_for_nonneg_x_at_positive_r(r, xs):
    # With r > 0 and every x >= 0 or NaN, 1 + r*x cannot fall below 1: the
    # unchecked call writes the checked call's bits, into out on an array and
    # on each float x without out, as the catalog's point kernels call it.
    with np.errstate(all="ignore"):
        checked = _dexp(r, np.array(xs), out=np.empty(len(xs)))
        unchecked = _dexp(r, np.array(xs), out=np.empty(len(xs)), nonneg=True)
        points = [(_dexp(r, x), _dexp(r, x, nonneg=True)) for x in xs]
    assert unchecked.tobytes() == checked.tobytes()
    assert np.array([u for _, u in points]).tobytes() == np.array([c for c, _ in points]).tobytes()


def test_point_admission_messages():
    # One t rule and one v rule, each quoting the value it was given.
    cases = [
        (lambda: EvalPoint(-1, 0.5), "t must be a finite positive real, got -1"),
        (lambda: EvalPoint(math.inf, 0.5), "t must be a finite positive real, got inf"),
        (lambda: EvalPoint(2.0, 2), "v must lie in [0, 1], got 2"),
        (lambda: EvalPoint(2.0, math.nan), "v must lie in [0, 1], got nan"),
        (lambda: kantorovich(-1), "t must be a finite positive real, got -1.0"),
        (lambda: kantorovich_identity_arg(0), "t must be a finite positive real, got 0.0"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


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
