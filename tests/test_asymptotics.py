import math

import numpy as np
import pytest

from bernsteinlab.asymptotics import (
    EnvelopeBounds,
    G_asympt,
    envelope_bounds,
    find_alpha0,
    monotonicity_check,
    norm_ratio_limit,
    watson_coeffs,
)
from bernsteinlab.kernels import C_const, kernel_eval

SQRT2 = math.sqrt(2.0)


def test_watson_table_k0_upper():
    w = watson_coeffs(0, "upper")
    assert w.a[0] == 1.0 / (2.0 * SQRT2)
    assert w.a[1] == -1.0 / 6.0
    assert w.a[2] == -5.0 / (12.0 * SQRT2)
    assert w.lam == 1 and w.mu == 2


def test_watson_table_k1_upper():
    w = watson_coeffs(1, "upper")
    assert w.a[1] == 1.0 / 3.0
    assert abs(w.a[3] - (-49.0 / 270.0)) <= 1e-16


def test_watson_lower_branch_sign_flip():
    for k in (0, 1):
        up = watson_coeffs(k, "upper")
        lo = watson_coeffs(k, "lower")
        assert all(lo.a[i] == ((-1.0) ** i) * up.a[i] for i in range(6))
        assert lo.a[1] == -up.a[1]


def test_watson_validation():
    with pytest.raises(ValueError):
        watson_coeffs(2, "upper")
    with pytest.raises(ValueError):
        watson_coeffs(0, "middle")


def test_even_expansion_coefficients_derive_from_table():
    # combining both branches keeps only even indices; Gamma((2j+1)/2) a_2j
    # terms reproduce the closed expansion coefficients exactly
    for k, expect in ((0, (0.5, -5.0 / 24.0, 61.0 / 576.0)), (1, (0.5, -5.0 / 24.0, 205.0 / 576.0))):
        a = watson_coeffs(k, "upper").a
        for j, target in enumerate(expect):
            derived = 2.0 * math.gamma(j + 0.5) * a[2 * j] / math.sqrt(2.0 * math.pi)
            assert abs(derived - target) <= 1e-15


def test_odd_coefficients_cancel_across_branches():
    for k in (0, 1):
        up = watson_coeffs(k, "upper")
        lo = watson_coeffs(k, "lower")
        for i in (1, 3, 5):
            assert up.a[i] + lo.a[i] == 0.0


def test_G_asympt_matches_quadrature():
    for alpha in (20.0, 40.0, 80.0):
        q = kernel_eval("G", alpha, alpha)
        assert abs(q - G_asympt(alpha, "G_aa", 2)) / q <= 3.0 / alpha**3
        q1 = kernel_eval("G", alpha + 1.0, alpha)
        assert abs(q1 - G_asympt(alpha, "G_a1a", 2)) / q1 <= 3.0 / alpha**3


def test_G_asympt_difference_identity():
    # the order-2 expansions differ by exactly sqrt(2 pi/a) e^-a (1/4)/a^2
    alpha = 40.0
    diff = G_asympt(alpha, "G_a1a", 2) - G_asympt(alpha, "G_aa", 2)
    pred = math.sqrt(2.0 * math.pi / alpha) * math.exp(-alpha) / (4.0 * alpha**2)
    # cancellation noise scales with the expansion values, not the difference
    assert abs(diff - pred) <= 1e-15 * G_asympt(alpha, "G_aa", 2)


def test_G_aac_leading_term():
    alpha, c = 30.0, 1.5
    ratio = kernel_eval("G", alpha, alpha + c) / kernel_eval("G", alpha, alpha)
    assert abs(ratio / math.exp(-c) - 1.0) <= 3.0 / alpha
    lead = G_asympt(alpha, "G_aac", 0, c=c)
    assert abs(lead / G_asympt(alpha, "G_aa", 0) - math.exp(-c)) <= 1e-15


def test_G_asympt_order_errors():
    with pytest.raises(ValueError):
        G_asympt(10.0, "G_aa", 3)
    with pytest.raises(ValueError):
        G_asympt(10.0, "G_aac", 1, c=1.0)
    with pytest.raises(ValueError):
        G_asympt(10.0, "G_xx", 0)
    with pytest.raises(ValueError, match="c must be finite and >= 0, got nan"):
        G_asympt(10.0, "G_aac", 0, c=math.nan)
    # a float order once failed inside range() with a TypeError
    for order in (1.5, math.nan, -1):
        with pytest.raises(ValueError, match=f"order must be an integer >= 0, got {order}"):
            G_asympt(10.0, "G_aa", order)
    assert G_asympt(10.0, "G_aa", np.int64(2)) == G_asympt(10.0, "G_aa", 2)


def test_remainder_constant_stable():
    # measured remainder constant K = |rel gap| * alpha^3 stays within +-50%
    # of its mean across octaves
    ks = []
    for alpha in (20.0, 40.0, 80.0):
        q = kernel_eval("G", alpha, alpha)
        ks.append(abs(q - G_asympt(alpha, "G_aa", 2)) / q * alpha**3)
    mean = sum(ks) / len(ks)
    assert all(0.5 * mean <= k <= 1.5 * mean for k in ks)


def test_shifted_kernel_gap_positive():
    for alpha in (20.0, 50.0):
        gap = kernel_eval("G", alpha + 1.0, alpha) - (1.0 + alpha**-3) * kernel_eval(
            "G", alpha, alpha
        )
        assert gap > 0.0


def test_R_diagonal_signs():
    assert kernel_eval("R", 2.4, 2.4) < 0.0
    assert kernel_eval("R", 3.0, 3.0) > 0.0


def test_find_alpha0_tol_domain():
    with pytest.raises(ValueError):
        find_alpha0(1e-9)


@pytest.mark.parametrize("alpha", [3.0, 10.0])
def test_envelope_decreasing_beyond_alpha(alpha):
    assert monotonicity_check(alpha, alpha + 6.0 * math.pi)


def test_monotonicity_check_runs_below_threshold():
    # below the guaranteed range the check still runs and reports a boolean
    assert monotonicity_check(1.5, 10.0) in (True, False)
    # an infinite end is named, not passed on as a grid of NaNs
    with pytest.raises(ValueError, match="x_hi must be finite and exceed alpha, got inf"):
        monotonicity_check(1.0, math.inf)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: monotonicity_check(math.nan, 5.0), "monotonicity_check"),
        (lambda: monotonicity_check(math.inf, math.inf), "monotonicity_check"),
        (lambda: envelope_bounds(math.inf), "envelope_bounds"),
        (lambda: norm_ratio_limit(math.inf), "norm_ratio_limit"),
        (lambda: G_asympt(math.inf, "G_aa"), "G_asympt"),
    ],
)
def test_non_finite_alpha_is_named(call, name):
    with pytest.raises(ValueError, match=rf"^{name} requires finite alpha"):
        call()


def test_envelope_bounds_chain():
    for alpha in (2.0, 4.0, 16.0):
        eb = envelope_bounds(alpha)
        assert eb.lower <= eb.point_value <= eb.norm <= eb.upper


def test_envelope_bounds_alpha4_arithmetic():
    eb = envelope_bounds(4.0)
    assert abs(eb.lower - C_const(4.0) / 9.0 * 0.5) <= 1e-12 * eb.lower
    assert abs(eb.upper - C_const(4.0) / 9.0 * 2.0) <= 1e-12 * eb.upper


def test_envelope_bounds_ratio_window():
    eb = envelope_bounds(16.0)
    assert 1.0 <= eb.norm / eb.point_value <= (1.0 + 2.0 / 4.0) / (1.0 - 1.0 / 4.0)


def test_envelope_bounds_domain():
    with pytest.raises(ValueError):
        envelope_bounds(1.5)


def test_envelope_chain_violation_raises():
    with pytest.raises(RuntimeError):
        EnvelopeBounds(4.0, lower=1.0, point_value=0.5, norm=2.0, upper=3.0)


def test_norm_ratio_limit_window():
    for alpha in (10.0, 20.0):
        r = norm_ratio_limit(alpha)
        assert 1.0 - 1.0 / math.sqrt(alpha) - 0.02 <= r <= 1.0 + 2.0 / math.sqrt(alpha) + 0.02


def test_envelope_lobe_ratio_trend():
    deviations = []
    for alpha in (20.0, 40.0, 80.0):
        r = kernel_eval("H1", alpha, alpha + 1.5 * math.pi) / kernel_eval("H1", alpha, alpha)
        deviations.append(abs(r - 1.0))
    assert deviations[0] <= 0.25
    assert deviations[0] >= deviations[1] >= deviations[2]
