import math
import re

import numpy as np
import pytest

from bernsteinlab.chebinterp import build_nodes, scaled_interp_eval
from bernsteinlab.entire import (
    _prefactor,
    G_alpha,
    H_alpha_integral,
    H_alpha_series,
    beta_point,
)
from bernsteinlab.kernels import C_const, D_const, kernel_eval
from oracles import H_alpha_series_mp

PI = math.pi


def test_interpolation_at_pi_multiples():
    assert abs(H_alpha_integral(1.0, PI) - PI) <= 1e-12
    assert abs(H_alpha_integral(0.5, 2.0 * PI) - (2.0 * PI) ** 0.5) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 3.1, 5.3])
def test_series_matches_integral(alpha):
    for x in (0.3, 2.0, 7.0, 15.0):
        a = H_alpha_integral(alpha, x)
        b = H_alpha_series(alpha, x)
        assert abs(a - b) <= 1e-6


@pytest.mark.parametrize("alpha", [0.5, 1.3, 3.1, 5.3])
def test_series_matches_the_40_digit_series(alpha):
    # the same series summed in mpmath: checks the accelerated tail and the
    # odd_zeta form of C(a) far below the integral's quadrature tolerance
    for x in (2.0, 15.0, 100.0):
        ref = H_alpha_series_mp(alpha, x)
        assert abs(H_alpha_series(alpha, x) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("x", [1e4 + 0.3, 1e5])
def test_series_matches_the_40_digit_series_far_out(x):
    # thousands of direct terms, whose denominators x - k pi would carry the
    # rounding of k pi, up to ulp(x), without the split of pi
    ref = H_alpha_series_mp(1.3, x)
    assert abs(H_alpha_series(1.3, x) - ref) <= 1e-13 * abs(ref)


def test_series_branch_boundaries():
    # alpha = 3.1 exercises the one-term polynomial part, 5.3 the two-term one
    assert abs(H_alpha_series(3.1, 5.0) - H_alpha_integral(3.1, 5.0)) <= 1e-6
    assert abs(H_alpha_series(1.5, 1.7) - H_alpha_integral(1.5, 1.7)) <= 1e-6


def test_series_at_poles():
    for k in (1, 2, 5):
        assert abs(H_alpha_series(1.0, k * PI) - (k * PI)) <= 1e-10
    assert abs(H_alpha_series(3.1, 3.0 * PI) - (3.0 * PI) ** 3.1) <= 1e-8


def test_series_near_poles():
    for x in (PI + 1e-5, 2.0 * PI - 3e-5, 3.0 * PI + 1e-7):
        assert abs(H_alpha_series(0.7, x) - H_alpha_integral(0.7, x)) <= 1e-9


def test_series_rejects_even_integer_alpha():
    with pytest.raises(ValueError):
        H_alpha_series(2.0, 1.0)
    with pytest.raises(ValueError):
        H_alpha_series(4.0, 1.0)
    with pytest.raises(ValueError, match="alpha must not be an even integer, got 2.0"):
        G_alpha(2.0, 1.0)
    # a non-finite alpha or x is named at entry
    with pytest.raises(ValueError, match="^H_alpha_series requires finite alpha"):
        H_alpha_series(math.inf, 1.0)
    for x in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="^H_alpha_series requires finite x"):
            H_alpha_series(1.0, x)


def test_even_reflection():
    assert H_alpha_integral(0.5, -2.0) == H_alpha_integral(0.5, 2.0)
    assert H_alpha_series(0.5, -2.0) == H_alpha_series(0.5, 2.0)
    assert G_alpha(0.5, -2.0) == G_alpha(0.5, 2.0)


@pytest.mark.parametrize("fn,alpha", [(H_alpha_integral, 1.5), (G_alpha, 0.5)])
def test_array_x_is_one_batch_of_the_scalar_values(fn, alpha):
    # the rows of a batch refine together, so they agree with one-point calls
    # to the quadrature tolerance; 0 and negative x take the scalar path's rules
    xs = np.array([[0.0, -2.0, 0.3], [7.0, 15.0, 100.0]])
    got = fn(alpha, xs)
    assert got.shape == xs.shape
    for x, v in zip(xs.ravel(), got.ravel()):
        ref = fn(alpha, float(x))
        assert type(ref) is float
        assert abs(v - ref) <= 1e-11 * max(abs(ref), 1.0)
    assert got[0, 0] == 0.0
    with pytest.raises(ValueError, match="finite x"):
        fn(alpha, np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match=f"^{fn.__name__} requires finite alpha"):
        fn(math.inf, xs)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.1])
def test_float_x_keeps_the_float_formula_bits(alpha):
    # a float x goes through the array path and must give the float formula's bits
    scale = (2.0 / PI) * math.sin(0.5 * PI * alpha)
    # numpy's power on a 1-entry array differs from x**alpha at about 1 x in 20
    for x in [0.0, -0.0, -2.0, PI] + np.linspace(0.05, 60.0, 40).tolist():
        ax = abs(x)
        h = ax**alpha - scale * kernel_eval("H", alpha, ax)
        g = ax**alpha - scale * math.cos(ax) * kernel_eval("A0", alpha, ax)
        assert H_alpha_integral(alpha, x) == h
        assert type(H_alpha_integral(alpha, x)) is float
        assert G_alpha(alpha, x) == g
        assert type(G_alpha(alpha, np.float64(x))) is float


def test_value_at_zero():
    assert H_alpha_integral(0.5, 0.0) == 0.0
    assert H_alpha_series(0.5, 0.0) == 0.0
    assert G_alpha(1.0, 0.0) == 0.0


def test_G_alpha_interpolates_half_integer_lattice():
    assert abs(G_alpha(1.0, PI / 2.0) - PI / 2.0) <= 1e-12
    for k in range(3):
        x = (k + 0.5) * PI
        assert abs(G_alpha(0.5, x) - x**0.5) <= 1e-9


def test_G_alpha_vs_scaled_interpolant():
    v = scaled_interp_eval(build_nodes("P1", 128), 0.5, 3.0)
    assert abs(v - G_alpha(0.5, 3.0)) <= 5e-2


def test_beta_point_values():
    assert beta_point(3.9) == 2.5 * PI
    assert beta_point(8.4) == 3.5 * PI
    assert beta_point(PI) == 2.5 * PI  # floor at the integer boundary


@pytest.mark.parametrize("alpha", [3.9, 8.4, PI, 0.2])
def test_beta_point_bracket(alpha):
    beta = beta_point(alpha)
    assert alpha + PI / 2.0 < beta <= alpha + 1.5 * PI


@pytest.mark.parametrize("alpha", [3.9, 8.4])
def test_envelope_touches_error_at_beta(alpha):
    beta = beta_point(alpha)
    lhs = abs(kernel_eval("H", alpha, beta))
    rhs = kernel_eval("H1", alpha, beta)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_growth_proxy_bound():
    # |H_alpha(x)| <= |x|^alpha + (2/pi) C(alpha): assertable stand-in for
    # exponential type 1 on the real axis
    alpha = 1.5
    bound_c = 2.0 / PI * C_const(alpha)
    for x in np.linspace(0.0, 100.0, 201):
        assert abs(H_alpha_integral(alpha, x)) <= x**alpha + bound_c
    xs = np.linspace(0.0, 100.0, 201)
    assert (np.abs(H_alpha_integral(alpha, xs)) <= xs**alpha + bound_c).all()


@pytest.mark.parametrize("x", [1e155, 1e200, 1e300])
def test_G_alpha_where_x_squared_overflows(x):
    # A0 takes its limit D(alpha) there, so G_alpha is |x| - p cos(x) D(1)
    for v in (x, -x):
        assert G_alpha(1.0, v) == x - _prefactor(1.0) * math.cos(x) * D_const(1.0)
    got = G_alpha(1.0, np.array([0.5, x]))
    assert np.array_equal(got, [G_alpha(1.0, 0.5), G_alpha(1.0, x)])


@pytest.mark.parametrize("fn", [G_alpha, H_alpha_integral])
def test_power_past_the_double_range_names_function_alpha_and_x(fn):
    # 1e155^2.5 passes the double range; the error names where
    at = f"{fn.__name__} at alpha=2.5 and "
    with pytest.raises(OverflowError, match=re.escape(at + "x=1e+155 exceeds the double range")):
        fn(2.5, -1e155)
    with pytest.raises(OverflowError, match=re.escape(at + "some x in [0.5, 1e+155]")):
        fn(2.5, np.array([0.5, 1e155]))


@pytest.mark.parametrize("x", [1e6 * (1.0 + 2**-52), 1e7, 1e155])
def test_series_refuses_x_past_its_bound(x):
    # x/pi + 3 terms are summed one by one: 1e155 never returned
    message = f"H_alpha_series requires finite x with |x| <= 1e+06, got {x!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        H_alpha_series(1.3, -x)
