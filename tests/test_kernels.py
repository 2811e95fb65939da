import contextlib
import itertools
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

from bernsteinlab import kernels, quadrature, specfun
from bernsteinlab.entire import G_alpha, beta_point
from bernsteinlab.kernels import (
    C_const,
    D_const,
    KernelKind,
    SupNormReport,
    delta_1_closed,
    delta_2_closed,
    kernel_eval,
    kernel_values,
    sup_norm_H,
    sup_norm_H1,
)
from bernsteinlab.quadrature import QuadratureError, integrate_zero_to_inf

import oracles

PI = math.pi


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_C_closed_forms():
    assert abs(C_const(1.0) / (PI**2 / 4.0) - 1.0) <= 1e-11
    assert abs(C_const(2.0) / (3.5 * oracles.ZETA3) - 1.0) <= 1e-11
    # zeta-expansion closed form at a fractional exponent
    ref = 2.0 * (1.0 - 2.0**-1.1) * specfun.gamma(1.1) * specfun.zeta(1.1)
    assert abs(C_const(0.1) / ref - 1.0) <= 1e-11


def test_D_closed_forms():
    assert abs(D_const(1.0) / (PI / 2.0) - 1.0) <= 1e-11
    assert abs(D_const(2.0) / (2.0 * oracles.CATALAN) - 1.0) <= 1e-11


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
def test_small_alpha_constants_reach_the_left_end(alpha):
    # both integrands are about t^(alpha-1) near 0, whose integral over (0,
    # eps) is eps^alpha/alpha: at alpha = 0.05 a rule whose nodes stop at
    # eps ~ 1e-227 misses 5e-12 of C and D
    for const, ref in ((C_const, oracles.C_closed_mp), (D_const, oracles.D_closed_mp)):
        want = float(ref(alpha))
        assert abs(const(alpha) - want) <= 1e-14 * want, const.__name__


def test_D_vs_midpoint_oracle():
    oracle = oracles.midpoint_power_cosh(3.0)
    assert abs(D_const(3.0) - oracle) <= 1e-9


def test_constants_domain():
    with pytest.raises(ValueError):
        C_const(0.0)
    with pytest.raises(ValueError):
        D_const(-1.0)


def _mp_H1(alpha, x):
    """H1(alpha, x) = int t^a/sinh t x/(x^2+t^2) dt by 30-digit mpmath, split
    at 1, at the peak of t^a/sinh t near alpha and past it."""
    with mpmath.workdps(30):
        a, xm = mpmath.mpf(alpha), mpmath.mpf(x)
        points = [0, 1, a / 2, a, 2 * a + 10, mpmath.inf]
        return mpmath.quad(lambda t: t**a / mpmath.sinh(t) * xm / (xm * xm + t * t), points)


def _check_in_range(name, alpha):
    """name at alpha returns its value: C against Gamma(a+1) odd_zeta(a+1),
    a sup norm against mpmath's H1 at its argmax."""
    got = getattr(kernels, name)(alpha)
    if name == "C_const":
        assert abs(got - _C_closed(alpha)) <= 1e-13 * _C_closed(alpha)
        return
    assert math.isfinite(got.norm) and got.tail_bound < got.norm
    ref = _mp_H1(alpha, got.argmax)
    if name == "sup_norm_H":
        ref *= abs(mpmath.sin(got.argmax))
    assert abs(got.norm - ref) <= 1e-13 * ref


@pytest.mark.parametrize(
    "name,alpha",
    [("C_const", 170.0), ("C_const", 171.0), ("D_const", 172.0), ("sup_norm_H1", 170.0)],
    ids=["C_const-170", "C_const-171", "D_const-172", "sup_norm_H1-170"],
)
def test_overflowed_row_sum_raises_not_inf(name, alpha):
    # from alpha = 150 the weights are scaled by t0^-(alpha+shift), t0 =
    # alpha/e, so the quadrature's sums stay finite: C(170) ~ 1.45e307 and
    # sup H1(170) ~ 4.26e304 are returned, while C(171) ~ 2.5e309 and D(172)
    # ~ 2.5e309 are a QuadratureError naming the function, not an inf value
    if alpha == 170.0:
        _check_in_range(name, alpha)
        return
    with pytest.raises(QuadratureError, match=rf"^{name} at alpha={alpha}: .* double range"):
        getattr(kernels, name)(alpha)


@pytest.mark.parametrize("alpha", [170.0, 172.0])
@pytest.mark.parametrize("name", ["C_const", "sup_norm_H", "sup_norm_H1"])
def test_past_the_double_range_names_the_function_and_alpha(name, alpha):
    # C(170) ~ 1.45e307 and the sup norms at 170 are doubles and returned;
    # C(172) ~ 4.3e311 is not, and the sup norms need it: one OverflowError
    # naming the call, not a node the caller never passed
    if alpha == 170.0:
        _check_in_range(name, alpha)
        return
    with pytest.raises(
        OverflowError, match=rf"^{name} at alpha={alpha}: the integrand overflows the double range"
    ) as info:
        getattr(kernels, name)(alpha)
    assert "x=" not in str(info.value)


# ---------------------------------------------------------------------------
# kernel_eval
# ---------------------------------------------------------------------------


def test_H_vanishes_at_sin_zero():
    assert abs(kernel_eval("H", 1.3, 2.0 * PI)) <= 1e-12


def test_H1_limit_at_zero():
    assert kernel_eval("H1", 1.0, 0.0) == PI / 2.0
    assert kernel_eval("H1", 2.5, 0.0) == 0.0
    assert kernel_eval("H", 0.5, 0.0) == 0.0
    assert kernel_eval("H2", 0.5, 0.0) == 0.0
    with pytest.raises(ValueError, match="diverges"):
        kernel_eval("H1", 0.5, 0.0)


def test_H1_is_power_times_F():
    lhs = kernel_eval("H1", 2.0, 3.0)
    rhs = 3.0**2 * kernel_eval("F", 2.0, 3.0)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_S_vs_independent_representation():
    # S(a, x) also equals int t^a (t-a)/(2 sinh t) * (x^2+a^2)/(x^2+t^2) dt
    alpha, x = 3.0, 2.0
    val = kernel_eval("S", alpha, x)

    def g(t):
        core = np.exp(alpha * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t))
        return core * (t - alpha) / 2.0 * (x * x + alpha * alpha) / (x * x + t * t)

    ref = integrate_zero_to_inf(g)
    assert ref.converged
    assert abs(val - ref.value) <= 1e-9 * abs(ref.value)


def test_kernel_domains():
    with pytest.raises(ValueError):
        kernel_eval("F2", 1.5, 1.0)  # needs alpha > 2
    with pytest.raises(ValueError):
        kernel_eval("H", -0.5, 1.0)
    with pytest.raises(ValueError):
        kernel_eval("F", 1.0, 0.0)  # x = 0 undefined for F
    with pytest.raises(ValueError):
        kernel_eval("nope", 1.0, 1.0)
    # non-finite input is refused where it enters, naming the argument
    with pytest.raises(ValueError, match="finite alpha"):
        kernel_eval("R", math.inf, 1.0)
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite x"):
            kernel_eval("H1", 1.0, x)
        with pytest.raises(ValueError, match="finite x"):
            kernel_values("H1", 1.0, np.array([1.0, x]))


def test_kernel_values_takes_the_limits_at_zero():
    xs = np.array([0.0, 0.5, 0.0, 3.0])
    for kind in ("H", "H2", "A0"):
        got = kernel_values(kind, 1.5, xs)
        assert got[0] == got[2] == 0.0
        # the x > 0 entries are the bits of a call without the zeros
        assert np.array_equal(got[[1, 3]], kernel_values(kind, 1.5, xs[[1, 3]]))
    for alpha in (1.0, 2.5):
        got = kernel_values("H1", alpha, xs)
        assert got[0] == got[2] == kernel_eval("H1", alpha, 0.0)
        assert np.array_equal(got[[1, 3]], kernel_values("H1", alpha, xs[[1, 3]]))
    # an array alpha takes its limits row by row
    alphas = np.array([1.0, 0.5, 2.5, 1.0])
    got = kernel_values("H1", alphas, xs)
    assert got[0] == PI / 2.0 and got[2] == 0.0
    assert np.array_equal(got[[1, 3]], kernel_values("H1", alphas[[1, 3]], xs[[1, 3]]))
    with pytest.raises(ValueError, match="diverges"):
        kernel_values("H1", np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="kernel F requires x > 0"):
        kernel_values("F", 1.5, xs)


def test_kernel_values_matches_scalar():
    # one point is the same code bit for bit; a batch refines until its last
    # row converges, so it agrees to the quadrature tolerance
    xs = np.array([0.7, 2.0, 9.5])
    for kind in KernelKind:
        for alpha in (2.5, 6.0):
            batch = kernel_values(kind, alpha, xs)
            for x, v in zip(xs, batch):
                scalar = kernel_eval(kind, alpha, x)
                assert kernel_values(kind, alpha, [x])[0] == scalar
                assert abs(v - scalar) <= 1e-11 * abs(v)
        # an alpha per row: every row is its own (alpha, x) point
        alphas = np.array([2.5, 6.0, 3.0])
        for a, x, v in zip(alphas, xs, kernel_values(kind, alphas, xs)):
            scalar = kernel_eval(kind, a, x)
            assert abs(v - scalar) <= 1e-11 * abs(v)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_uniform_alpha_array_is_bit_equal_to_scalar(kind):
    # S's power takes 2 at alpha = 3 and 0.5 at alpha = 1.5, exponents numpy
    # rounds differently as a scalar than as an array
    xs = np.geomspace(0.05, 60.0, 37)
    for alpha in (2.5, 3.0) if kind is KernelKind.F2 else (1.5, 3.0, 0.3):
        got = kernel_values(kind, np.full(len(xs), alpha), xs)
        assert np.array_equal(got, kernel_values(kind, alpha, xs)), alpha


def test_kernel_values_broadcasts_alpha_against_x():
    xs = np.array([0.5, 3.0, 11.0])
    alphas = np.array([[1.5], [4.0]])
    grid = kernel_values("H", alphas, xs)
    assert grid.shape == (2, 3)
    for a, row in zip(alphas[:, 0], grid):
        assert np.allclose(row, kernel_values("H", a, xs), rtol=1e-11, atol=0.0)
    # x of any shape, a 0-d x included, keeps its shape
    assert kernel_values("H1", 1.0, 2.0).shape == ()
    assert kernel_values("H1", 1.0, 2.0) == kernel_eval("H1", 1.0, 2.0)
    x2 = xs.reshape(3, 1) * np.ones((1, 2))
    assert np.array_equal(kernel_values("H1", 1.0, x2), kernel_values("H1", 1.0, x2.ravel()).reshape(3, 2))


def test_array_alpha_contract():
    xs = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"alpha of shape \(2,\) .* x of shape \(3,\)"):
        kernel_values("H1", np.array([1.0, 2.0]), xs)
    # checked entry by entry, the first bad one named
    with pytest.raises(ValueError, match=r"H1 requires finite alpha > 0.0, got -1.0$"):
        kernel_values("H1", np.array([1.0, -1.0, math.nan]), xs)
    with pytest.raises(ValueError, match=r"F2 requires finite alpha > 2.0, got 1.5$"):
        kernel_values("F2", np.array([3.0, 1.5, 2.5]), xs)
    with pytest.raises(ValueError, match="scalar alpha and x"):
        kernel_eval("H1", np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match=r"beta_point requires finite alpha"):
        beta_point(math.inf)
    with pytest.raises(ValueError, match=r"sup_norm_H1 requires finite alpha > 1.0, got inf"):
        sup_norm_H1(math.inf)


@pytest.mark.parametrize("alpha", [1.0, 2.5, 10.0])
def test_F_G_vs_mpmath(alpha):
    # 30-digit mpmath quadrature, split where exp(-x t) turns over
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        for x in (0.1, 1.0, 10.0):
            xm = mpmath.mpf(x)
            refs = {
                "F": lambda t: t**a / mpmath.sinh(xm * t) / (1 + t * t),
                "G": lambda t: t**a * mpmath.exp(-xm * t) / (1 + t * t),
            }
            for kind, integrand in refs.items():
                ref = mpmath.quad(integrand, [0, 1 / xm, mpmath.inf])
                assert abs(kernel_eval(kind, alpha, x) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("kind", ["F", "G", "R"])
def test_overflow_names_kind_alpha_x(kind):
    # the true values are about Gamma(79) 10^237 ~ 1e352, past the double range
    with pytest.raises(OverflowError, match=rf"kernel {kind} at alpha=80.0 and x=0.001 "):
        kernel_eval(kind, 80.0, 1e-3)


def test_picks_are_cached_by_the_value_of_alpha():
    # a 0-d alpha array changed between calls gets the pick of its new value
    alpha = np.array(2.5)
    kernel_values("H1", alpha, 2.0)
    alpha[...] = 40.0
    assert kernel_values("H1", alpha, 2.0) == kernel_eval("H1", 40.0, 2.0)
    assert C_const(alpha) == C_const(40.0)


@pytest.mark.parametrize("x", [1e155, 1e200, 1e300])
def test_J_and_A0_take_their_limits_where_x_squared_overflows(x):
    # past 1.34e154 x * x overflows; J = C(alpha)/x and A0 = D(alpha) there,
    # the next terms being O(alpha^2/x^2) relative
    c, d = C_const(2.5), D_const(2.5)
    assert kernel_eval("H1", 2.5, x) == c / x
    assert abs(kernel_eval("H", 2.5, x) - math.sin(x) * (c / x)) <= 1e-15 * (c / x)
    assert abs(kernel_eval("H2", 2.5, x) - c) <= 2 * math.ulp(c)
    assert kernel_eval("A0", 2.5, x) == d
    # just below the cut the quadrature gives the same value
    assert abs(kernel_eval("H1", 2.5, 1.2e154) - c / 1.2e154) <= 2 * math.ulp(c / 1.2e154)


@pytest.mark.parametrize("kind", ["H", "H1", "H2", "A0"])
def test_huge_x_beside_ordinary_x(kind):
    x = np.array([0.0, 0.5, 1e155, 3.0, 1e300, 1.3e154])
    huge = x > 1.34e154
    got = kernel_values(kind, 2.5, x)
    assert np.isfinite(got).all() and (got[huge] != 0.0).all()
    assert np.array_equal(got[~huge], kernel_values(kind, 2.5, x[~huge]))
    assert np.array_equal(got[huge], [kernel_eval(kind, 2.5, v) for v in x[huge]])


@pytest.mark.parametrize("alpha,x", [(80.0, 1e4), (2.5, 1e88), (2.5, 1e100)])
def test_S_past_the_double_range_raises(alpha, x):
    # S = (a/2) (x + a^2/x) (I(a+1, x)/a - I(a, x)) holds no power of x, so it
    # is finite where the factor a x^(a-1)/2 (x^2 + a^2) of R passes the
    # double range (80, 1e4; 2.5, 1e100) and where F(a+1, x) is below the
    # smallest normal double (2.5, 1e88), batched beside x = 1 too
    s = kernel_eval("S", alpha, x)
    assert math.isfinite(s)
    assert kernel_values("S", alpha, [1.0, x])[1] == pytest.approx(s, rel=1e-12)
    # S tends to (C(a+1) - a C(a))/2, about 3.19 at alpha = 2.5
    if alpha == 2.5:
        limit = (C_const(3.5) - 2.5 * C_const(2.5)) / 2.0
        assert abs(s - limit) <= 1e-13 * limit
    else:
        assert s == pytest.approx(7.156e118, rel=1e-3)
    # what still passes the double range raises, naming S: S(172, 1e4) is
    # about 172! ~ 1.26e309
    match = re.escape("kernel S at alpha=172.0 and x=10000.0 exceeds the double range")
    with pytest.raises(OverflowError, match=match):
        kernel_eval("S", 172.0, 1e4)


@pytest.mark.parametrize("kind,alpha,x", [("F", 3.5, 1e64), ("R", 2.5, 1e64), ("G", 2.5, 1e120)])
def test_values_below_the_certified_floor_raise(kind, alpha, x):
    # F and R take x^-alpha out of the integral, whose value C(alpha)/x stays
    # far above the quadrature's certified floor ABS_FLOOR / REL_TOL = 1e-288:
    # F(3.5, 1e64) = C(3.5) x^-4.5 ~ 2.35e-287 and R(2.5, 1e64) = (C(3.5)/2.5
    # - C(2.5)) x^-3.5 ~ 2.55e-224 are returned.  G(2.5, 1e120) ~ 3.3e-420 is
    # below the smallest normal double and raises
    if kind == "G":
        match = re.escape(f"kernel G at alpha={alpha} and x={x} exceeds the double range")
        with pytest.raises(OverflowError, match=match):
            kernel_eval(kind, alpha, x)
        return
    c = oracles.C_closed_mp
    ref = (c(alpha) if kind == "F" else c(3.5) / 2.5 - c(2.5)) / x ** (alpha + 1.0)
    assert abs(kernel_eval(kind, alpha, x) - ref) <= 1e-13 * ref


def _C_closed(alpha):
    """C(alpha) = Gamma(alpha+1) odd_zeta(alpha+1), by specfun's series."""
    return specfun.gamma(alpha + 1.0) * specfun.odd_zeta(alpha + 1.0)


_LEADING_TERMS = {
    ("F", 2.5, 1e-100): lambda x: _C_closed(0.5) * x**-1.5,
    ("F", 0.5, 1e-50): lambda x: (PI / 2.0) / math.sin(PI / 4.0) / x,
    ("F", 3.5, 1e64): lambda x: _C_closed(3.5) * x**-4.5,
    ("G", 2.5, 1e-150): lambda x: specfun.gamma(1.5) * x**-1.5,
    ("G", 0.5, 1e150): lambda x: specfun.gamma(1.5) * x**-1.5,
    ("H1", 0.5, 1.5e-154): lambda x: (PI / 2.0) / math.sin(PI / 4.0) * x**-0.5,
    ("A0", 2.5, 1e-150): lambda x: x * x * oracles.D_closed_mp(0.5),
    ("A0", 10.0, 1e-150): lambda x: x * x * oracles.D_closed_mp(8.0),
    ("S", 2.5, 1e88): lambda x: (_C_closed(3.5) - 2.5 * _C_closed(2.5)) / 2.0,
}


@pytest.mark.parametrize("kind,alpha,x", sorted(_LEADING_TERMS))
def test_extreme_x_match_their_leading_terms(kind, alpha, x):
    # far out or far in, each kind is its leading term, the next terms being
    # below 1e-70 relative: closed forms through specfun's Gamma and odd zeta
    # and mpmath's D, which share no code with the quadrature
    ref = _LEADING_TERMS[kind, alpha, x](x)
    assert abs(kernel_eval(kind, alpha, x) - ref) <= 1e-14 * abs(ref)


def _mp_power_kind(kind, alpha, x):
    """A kind at (alpha, x) by 30-digit mpmath in the substituted form, a
    power of x times int p(u) x/(x^2+u^2) du, split at 1, at the peak of p
    near alpha and past it."""
    with mpmath.workdps(30):
        a, xm = mpmath.mpf(alpha), mpmath.mpf(x)

        def integral(e, p):
            points = [0, 1, e / 2, e, 2 * e + 10, mpmath.inf]
            return mpmath.quad(lambda u: u**e * p(u) * xm / (xm * xm + u * u), points)

        def sinh(e):
            return integral(e, lambda u: 1 / mpmath.sinh(u))

        if kind == "G":
            return xm**-a * integral(a, lambda u: mpmath.exp(-u))
        if kind == "A0":
            return xm * integral(a - 1, lambda u: 1 / mpmath.cosh(u))
        if kind in ("H1", "H2"):
            return sinh(a) * (xm if kind == "H2" else 1)
        step = sinh(a + 1) / a - sinh(a)
        return {"F": xm**-a * sinh(a), "R": xm**-a * step, "S": a / 2 * (xm + a * a / xm) * step}[kind]


@pytest.mark.parametrize(
    "kind,alpha,x",
    [
        ("F", 300.0, 100.0),
        ("G", 300.0, 100.0),
        ("R", 170.0, 1.0),
        ("S", 170.0, 1e4),
        ("F", 400.0, 200.0),
        ("H1", 160.0, 1e-3),
        ("H1", 175.0, 1e300),
        ("H1", 300.0, 1e308),
        ("H2", 160.0, 1e3),
        ("H2", 175.0, 1e-100),
        ("H2", 300.0, 1e-200),
        ("A0", 160.0, 1.0),
        ("A0", 175.0, 1e-10),
        ("A0", 300.0, 1e-200),
    ],
)
def test_large_alpha_where_the_value_is_a_double(kind, alpha, x):
    # from alpha = 150 every weight is scaled by (alpha/e)^-(alpha+shift):
    # unscaled, t^alpha/sinh t and its integral pass the double range where
    # F(300, 100) ~ 6.1e11 and H1(175, 1e300) ~ 2.2e18 do not, and S(170,
    # 1e4) ~ 7.25e306 is a double although each of its two terms is about
    # 170 times that
    ref = _mp_power_kind(kind, alpha, x)
    got = kernel_eval(kind, alpha, x)
    assert abs(got - ref) <= 1e-13 * abs(ref)
    assert kernel_values(kind, np.array([2.5, alpha]), [1.0, x])[1] == pytest.approx(got, rel=1e-12)


def test_scaled_picks_still_drop_nodes():
    # the scaled weight peaks near 1, so past alpha = 170 the pick drops nodes
    key = (0.0, None, 7)
    with np.errstate(over="ignore", under="ignore"):
        kept = kernels._kept_nodes(1, 300.0, *key, t0=300.0 / math.e)[0]
    assert 0 < len(kept) < len(quadrature._xw(*key)[0]) // 4


@pytest.mark.parametrize("kind,x", [("A0", 1.3268041237113403e155), ("H2", 7.512114737716713e154)])
def test_x_times_the_limit_is_the_constant_itself(kind, x):
    # past 1.34e154 A0 = D(alpha) and H2 = C(alpha) exactly, where x (D/x)
    # and x (C/x) miss them by an ulp at these x
    const = D_const(2.5) if kind == "A0" else C_const(2.5)
    assert x * (const / x) != const
    assert kernel_eval(kind, 2.5, x) == const


def test_an_integral_below_the_certified_floor_raises():
    # J(2.5, 1e-300) ~ C(0.5) x ~ 2.4e-300 is below ABS_FLOOR / REL_TOL,
    # where the quadrature certifies only an absolute error of 1e-300
    match = re.escape("kernel H1 at alpha=2.5 and x=1e-300 exceeds the double range")
    with pytest.raises(OverflowError, match=match):
        kernel_eval("H1", 2.5, 1e-300)


@pytest.mark.parametrize(
    "name,alpha,x",
    [
        ("H1", 0.5, 1e-200),
        ("G", 0.5, 1e-300),
        *((kind, alpha, 1e-200) for kind in ("R", "S") for alpha in (0.5, 2.5, 10.0, 160.0)),
        ("G_alpha", 0.5, 1e-170),
        ("H", 2.5, 1e-200),
        ("H2", 2.5, 1e-170),
        ("A0", 2.5, 1e-170),
        ("A0", 2.5, 1e-160),
    ],
)
def test_tiny_x_raises_the_named_error_not_a_warning(name, alpha, x):
    # below x ~ 1e-162 x * x + t * t underflows to 0 at the smallest nodes,
    # and x/0 is an infinite integrand: the named OverflowError, not a
    # RuntimeWarning leaked from the quadrature.  H, H2 and A0 at alpha = 2.5
    # (about x^2 C(0.5) or x^2 D(0.5)) are below the smallest normal double
    # here, where they once read 0.0, or 2.367e-320 for A0 at 1e-160
    match = rf"^kernel \w+ at alpha={alpha} and x={x} exceeds the double range$"
    with pytest.raises(OverflowError, match=match):
        G_alpha(alpha, x) if name == "G_alpha" else kernel_eval(name, alpha, x)


_SWEEP_ALPHAS = (0.05, 0.5, 2.5, 10.0, 160.0, 300.0)
_SWEEP_XS = (1e-320, 1e-200, 1e-155, 1e-10, 1.0, 1e10, 1e155, 1e300)


def test_every_kind_returns_a_normal_double_or_raises():
    # every kind, over alphas and x from a subnormal to past x * x's range:
    # a finite normal double or a named error, never 0.0, a subnormal or a
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, alpha, x in itertools.product(KernelKind, _SWEEP_ALPHAS, _SWEEP_XS):
            try:
                v = kernel_eval(kind, alpha, x)
            except (ValueError, OverflowError, QuadratureError):
                continue
            assert math.isfinite(v) and abs(v) >= sys.float_info.min, (kind, alpha, x, v)


# J and A0 as plain expressions p(t) K(x, t), and C and D as p(t), p over
# t0^e (e = a for J and C, a - 1 for A0 and D), to be summed on every node
_REFERENCE_MATS = {
    "C": lambda a, x, t, t0: np.exp(a * np.log(t / t0) - t) * 2.0 / (-np.expm1(-2.0 * t)),
    "D": lambda a, x, t, t0: np.exp((a - 1.0) * np.log(t / t0) - t) * 2.0 / (1.0 + np.exp(-2.0 * t)),
    "J": lambda a, x, t, t0: (
        np.exp(a * np.log(t / t0) - t) * 2.0 / (-np.expm1(-2.0 * t)) * (x / (x * x + t * t))
    ),
    "A0": lambda a, x, t, t0: (
        np.exp((a - 1.0) * np.log(t / t0) - t) * 2.0 / (1.0 + np.exp(-2.0 * t)) * (x * x / (x * x + t * t))
    ),
}


def _column(name, a, x, t, k):
    """F's or G's weight exp(a log t - t) * 2.0 / d(t), times t^k, times
    x/(x^2+t^2): the column integrand, summed against the weights w/t."""
    d = -np.expm1(-2.0 * t) if name == "F" else 2.0
    p = np.exp(a * np.log(t) - t) * 2.0 / d * t
    return x / (x * x + t * t) * (p * t if k == 2 else p)


def _node_rows():
    """Each level's nodes of (0, inf): the cached read-only tables the
    half-line rule reads, whose factors kernels keeps."""
    for level in range(quadrature.MAX_LEVELS):
        yield quadrature._xw(0.0, None, level)[0]


@pytest.mark.parametrize("name", ["F", "G", "J"])
def test_in_place_integrands_are_bit_equal(name):
    # J's kernel x/(x^2+t^2) is the one integrand matrix, on a whole table and
    # on a picked part of one.  F and G with an alpha per row multiply their
    # weight, as an (m, 1) column, into it, and R takes t times it under the
    # sinh weight; 80 comes back after 1, so that a row kept for a stale
    # alpha would show, and the last alpha is one per row
    x = np.geomspace(1e-3, 1e3, 49)[:, None]
    alphas = (0.05, 80.0, 1.0, 80.0, 2.5, np.geomspace(0.05, 80.0, len(x))[:, None])
    with np.errstate(all="ignore"):
        for t in _node_rows():
            if name == "J":
                cases = [((x, t), x / (x * x + t * t)), ((x, t[::3]), x / (x * x + t[::3] * t[::3]))]
                build = kernels._J_mat
            else:
                weights = [(kernels._SINH, 1), (kernels._TSINH, 2)] if name == "F" else [(kernels._EXP, 1)]
                cases = [
                    ((weight, np.full(x.shape, a), x, t), _column(name, a, x, t, k))
                    for weight, k in weights
                    for a in alphas
                ]
                build = kernels._column_mat
            for args, want in cases:
                got = build(*args)
                assert got.shape == want.shape == (len(x), len(args[-1]))
                assert np.array_equal(got, want), len(t)


def test_node_factors_are_kept_for_read_only_tables_only():
    # keyed by the level table: read-only, and computed once per table
    key = (0.0, None, 3)
    t = quadrature._xw(*key)[0]
    with np.errstate(over="ignore", under="ignore"):
        factors = kernels._factors(*key)
        misses = kernels._factors.cache_info().misses
        assert kernels._factors(*key) is factors
        want = [np.log(t), -np.expm1(-2.0 * t), 1.0 + np.exp(-2.0 * t), np.full(len(t), 2.0)]
    assert kernels._factors.cache_info().misses == misses
    assert not factors.flags.writeable
    assert np.array_equal(factors, want)


def test_kept_nodes_are_cached_read_only_slices():
    key = (0.0, None, 7)
    t, w = quadrature._xw(*key)
    with np.errstate(over="ignore", under="ignore"):
        kept_t, kept_w = kernels._kept_nodes(1, 40.0, *key)
        assert kernels._kept_nodes(1, 40.0, *key)[0] is kept_t
        assert not kept_t.flags.writeable and not kept_w.flags.writeable
        # the kept weights carry p = t^40/sinh t, bit for bit
        pw = np.exp(40.0 * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t)) * w
        keep = kernels._keep_mask(pw, t)
        assert keep.sum() < len(t) // 4
        assert np.array_equal(kept_t, t[keep]) and np.array_equal(kept_w, pw[keep])
        # past the double range every node is kept, so the overflow is reported
        assert np.array_equal(kernels._kept_nodes(1, 175.0, *key)[0], t)


def test_node_factors_are_kept_for_level_tables_only(monkeypatch):
    # the picks read the factors of the half line's level tables alone; F
    # reads J's picks, so it reads those tables too
    keys, factors = [], kernels._factors
    monkeypatch.setattr(kernels, "_factors", lambda *key: keys.append(key) or factors(*key))
    kernels._kept_nodes.cache_clear()
    tables = {(0.0, None, n) for n in range(quadrature.MAX_LEVELS)}
    for alpha in np.linspace(0.3, 175.0, 9).tolist():
        for kind in ("H1", "A0"):
            with contextlib.suppress(OverflowError):
                kernel_values(kind, alpha, [1e-3, 0.5, 2.0, 30.0, 1e3])
    assert keys and set(keys) <= tables
    keys.clear()
    kernel_values("F", 2.5, [1e-3, 0.5, 2.0, 30.0, 1e3])
    assert keys and set(keys) <= tables


def test_F_reads_the_picks_of_H1(monkeypatch):
    # F(a, x) = x^-a J(a, x), both over the same t0^a: after H1 at (a, x), F
    # there reads H1's picks and selects no node.  H1(300, 100) ~ 1e611 is
    # past the double range, but its picks are built before its factor raises
    masks = []
    keep_mask = kernels._keep_mask
    monkeypatch.setattr(kernels, "_keep_mask", lambda pw, t: masks.append(len(t)) or keep_mask(pw, t))
    kernels._kept_nodes.cache_clear()
    for alpha, x in ((2.7182818, 3.0), (300.0, 100.0)):
        masks.clear()
        with contextlib.suppress(OverflowError):
            kernel_eval("H1", alpha, x)
        assert masks
        masks.clear()
        hits = kernels._kept_nodes.cache_info().hits
        kernel_eval("F", alpha, x)
        assert masks == []
        assert kernels._kept_nodes.cache_info().hits > hits


def test_a_new_alpha_selects_once_per_level_table(monkeypatch):
    masks, tables = [], set()
    keep_mask, xw = kernels._keep_mask, quadrature._xw
    monkeypatch.setattr(kernels, "_keep_mask", lambda pw, t: masks.append(id(t)) or keep_mask(pw, t))
    monkeypatch.setattr(quadrature, "_xw", lambda *key: tables.add(key) or xw(*key))
    kernels._kept_nodes.cache_clear()
    for call in (lambda: kernel_eval("H1", 2.7182818, 2.0), lambda: C_const(3.1415926)):
        masks.clear()
        tables.clear()
        call()
        assert sorted(masks) == sorted(id(xw(*key)[0]) for key in tables)
        # the same alpha again reuses every pick
        masks.clear()
        call()
        assert masks == []


def test_an_earlier_alpha_reuses_its_picks(monkeypatch):
    # the picks of several alphas are kept per table, not the last one alone
    masks = []
    keep_mask = kernels._keep_mask
    monkeypatch.setattr(kernels, "_keep_mask", lambda pw, t: masks.append(len(t)) or keep_mask(pw, t))
    C_const(math.e)
    C_const(math.pi)
    masks.clear()
    C_const(math.e)
    assert masks == []


def test_node_caches_stay_bounded():
    before = C_const(2.5)
    for k in range(1000):
        C_const(1.0 + (k + 0.5) / 500.0)
    for cache in (kernels._kept_nodes, kernels._factors):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert C_const(2.5) == before


@pytest.mark.parametrize("kind", ["H", "H1", "H2", "A0"])
def test_mixed_alpha_array_is_bit_equal_to_per_alpha_calls(kind):
    alphas = np.array([0.5, 40.0, 2.5, 0.5, 40.0, 2.5, 40.0])
    x = np.array([0.3, 1.0, 7.0, 20.0, 0.01, 150.0, 0.0])
    got = kernel_values(kind, alphas, x)
    for alpha in (0.5, 2.5, 40.0):
        rows = alphas == alpha
        assert np.array_equal(got[rows], kernel_values(kind, alpha, x[rows])), alpha


def _every_node_integral(expr):
    """expr integrated over (0, inf) on every node of every level: the rule's
    refinement loop with no node selection."""
    with np.errstate(all="ignore"):
        return quadrature._run_levels(0.0, None, expr)[0]


def _within_ulps(got, ref, ulps):
    return bool(np.all(np.abs(got - ref) <= ulps * np.spacing(np.abs(ref))))


_SELECTION_ALPHAS = (0.05, 0.3, 1.0, 2.5, 10.0, 40.0, 80.0, 160.0)
_SELECTION_XS = np.geomspace(1e-3, 1e3, 61)


def _every_node_reference(name, alpha, x):
    """The every-node sum of name's plain expression p K, with p over t0^e
    as in the kernels from alpha = 150, times t0^e, applied in halves."""
    t0 = float(kernels._t0(alpha))
    h = t0 ** (0.5 * (alpha if name in ("J", "C") else alpha - 1.0))
    ref = _every_node_integral(lambda t: _REFERENCE_MATS[name](alpha, x[:, None], t, t0))
    return h * ref * h


@pytest.mark.parametrize("alpha", _SELECTION_ALPHAS)
def test_kept_nodes_agree_with_every_node(alpha):
    # the kernels skip the nodes whose terms stay below 2^-60 of every row's
    # sum; the plain expressions summed on every node agree to 4 ulps
    x = _SELECTION_XS
    for kind, name in (("H1", "J"), ("A0", "A0")):
        assert _within_ulps(kernel_values(kind, alpha, x), _every_node_reference(name, alpha, x), 4), kind
    assert _within_ulps(C_const(alpha), _every_node_reference("C", alpha, x), 4)
    assert _within_ulps(D_const(alpha), _every_node_reference("D", alpha, x), 4)


def test_kept_nodes_agree_with_every_node_alpha_per_row():
    # an alpha per row goes one distinct alpha at a time; each group agrees
    # with the every-node sum of its own rows
    alphas = np.tile(_SELECTION_ALPHAS, len(_SELECTION_XS))
    x = np.repeat(_SELECTION_XS, len(_SELECTION_ALPHAS))
    for kind, name in (("H1", "J"), ("A0", "A0")):
        got = kernel_values(kind, alphas, x)
        for alpha in _SELECTION_ALPHAS:
            rows = alphas == alpha
            assert _within_ulps(got[rows], _every_node_reference(name, alpha, x[rows]), 4), (kind, alpha)


@pytest.mark.parametrize("alpha", [2.5, 40.0, 160.0])
def test_kept_nodes_vs_mpmath(alpha):
    # where most nodes are dropped: 30-digit mpmath, split at 1, at the peak
    # of t^alpha/sinh t near alpha, and past it
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        points = [0, 1, a, 2 * a + 10, mpmath.inf]
        for x in (1e-3, 1.0, 1e3):
            xm = mpmath.mpf(x)
            refs = {
                "H1": lambda t: t**a / mpmath.sinh(t) * xm / (xm * xm + t * t),
                "A0": lambda t: t ** (a - 1) / mpmath.cosh(t) * xm * xm / (xm * xm + t * t),
            }
            for kind, integrand in refs.items():
                ref = mpmath.quad(integrand, points)
                assert abs(kernel_values(kind, alpha, x) - ref) <= 1e-13 * ref, (kind, x)


def test_H1_at_alpha_40_hands_few_nodes_to_its_integrand(monkeypatch):
    # deterministic work gate: on the curve H grid of the kernel-tables
    # benchmark each integral evaluates at most 300 nodes per row, over both
    # parts and every level (2,052 when every node was evaluated)
    per_call = []
    integrate = kernels.integrate_zero_to_inf

    def counting(f, *args):
        per_call.append(0)

        def counted(t):
            per_call[-1] += len(t)
            return f(t)

        return integrate(counted, *args)

    monkeypatch.setattr(kernels, "integrate_zero_to_inf", counting)
    x = np.arange(0.1, 40.0 * PI, PI / 400.0)
    kernel_values("H1", 40.0, x)
    assert len(per_call) == -(-len(x) // kernels._BATCH_CHUNK)
    assert 0 < max(per_call) <= 300


# ---------------------------------------------------------------------------
# recorded identities
# ---------------------------------------------------------------------------

GRID_ALPHAS = (0.5, 1.0, 2.5, 5.0)
GRID_XS = (0.1, 1.0, 5.0, 20.0)


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
def test_envelope_family_identities(alpha):
    c = C_const(alpha)
    for x in GRID_XS:
        f = kernel_eval("F", alpha, x)
        h = kernel_eval("H", alpha, x)
        h1 = kernel_eval("H1", alpha, x)
        h2 = kernel_eval("H2", alpha, x)
        assert abs(h1 - x**alpha * f) <= 1e-9 * abs(h1)
        assert abs(h2 - x ** (alpha + 1.0) * f) <= 1e-9 * abs(h2)
        assert -1e-12 <= h2 <= c * (1.0 + 1e-9)
        assert abs(h) <= h2 + 1e-12


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
def test_C_rescaling_identities(alpha):
    v = integrate_zero_to_inf(
        lambda t: np.exp(alpha * np.log(t) - alpha * t) * 2.0 / (-np.expm1(-2.0 * alpha * t))
    )
    assert abs(C_const(alpha) - alpha ** (alpha + 1.0) * v.value) <= 1e-9 * C_const(alpha)
    if alpha > 1.0:
        w = integrate_zero_to_inf(
            lambda t: np.exp((alpha - 1.0) * np.log(t) - alpha * t)
            * 2.0
            / (-np.expm1(-2.0 * alpha * t))
        )
        ref = C_const(alpha - 1.0)
        assert abs(ref - alpha**alpha * w.value) <= 1e-9 * ref


@pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
def test_F_bracketed_by_F1_F2(alpha):
    for x in (1.0, alpha, 2.0 * alpha):
        f = kernel_eval("F", alpha, x)
        assert kernel_eval("F1", alpha, x) <= f * (1.0 + 1e-12)
        assert f <= kernel_eval("F2", alpha, x) * (1.0 + 1e-12)


@pytest.mark.parametrize("alpha,x", [(3.0, 4.0), (5.0, 7.0)])
def test_envelope_derivative_bound(alpha, x):
    h = 1e-5
    slope = (kernel_eval("H1", alpha, x + h) - kernel_eval("H1", alpha, x - h)) / (2.0 * h)
    bound = -2.0 / (x * x + alpha * alpha) * kernel_eval("S", alpha, x)
    assert slope <= bound + 1e-6


@pytest.mark.parametrize("alpha", [3.0, 6.0])
def test_S_increasing(alpha):
    xs = np.linspace(alpha / 2.0, 3.0 * alpha, 100)
    vals = [kernel_eval("S", alpha, x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_H_zero_at_multiples_of_pi():
    for k in range(1, 6):
        assert abs(kernel_eval("H", 1.7, k * PI)) <= 1e-12


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------


def test_sup_norm_H_sandwich_alpha1(h_norm):
    rep = h_norm(1.0)
    assert rep.norm <= C_const(1.0)
    assert rep.norm >= abs(kernel_eval("H", 1.0, beta_point(1.0)))
    assert rep.tail_bound < rep.norm
    assert rep.norm == max(v for _, v in rep.local_maxima)


def test_sup_norm_H_argmax_vs_dense_grid(h_norm):
    rep = h_norm(8.4)
    xs = np.linspace(0.0, 60.0, 1_000_000)[1:]
    vals = np.abs(np.sin(xs)) * oracles.gl_sinh_kernel_grid(8.4, xs)
    assert abs(rep.argmax - xs[int(np.argmax(vals))]) <= 1e-3


def test_sup_norm_H_large_alpha_ratio(h_norm):
    alpha = 50.0
    ratio = h_norm(alpha).norm * (1.0 + 2.0 * alpha) / C_const(alpha)
    assert 1.0 - 1.0 / math.sqrt(alpha) <= ratio <= 1.0 + 2.0 / math.sqrt(alpha)


def test_sup_norm_H1_upper_bound(h1_norm):
    assert h1_norm(2.0).norm <= 0.5 * C_const(1.0)


def test_sup_norm_H1_lower_bound(h1_norm):
    rep = h1_norm(4.0)
    point = kernel_eval("H1", 4.0, 4.0)
    assert rep.norm >= point
    assert point >= C_const(4.0) / 9.0 * 0.5


def test_sup_norm_H1_vs_dense_grid(h1_norm):
    rep = h1_norm(6.4)
    xs = np.linspace(0.0, 6.4 + 20.0 * PI, 1_000_000)[1:]
    vals = oracles.gl_sinh_kernel_grid(6.4, xs)
    assert abs(rep.norm - vals.max()) <= 1e-6 * rep.norm


@pytest.mark.parametrize("alpha", [2.0, 2.5, 10.0, 30.0])
def test_sup_norm_H1_is_the_top_of_J_to_a_few_ulps(h1_norm, alpha):
    # the polish closes at xtol = 1e-8, where the top of J is flat to about
    # an ulp; at 1e-6 the norm sat 20 ulps below this scan at alpha = 2
    rep = h1_norm(alpha)
    top = kernel_values("H1", alpha, rep.argmax + np.linspace(-1e-6, 1e-6, 2001)).max()
    assert abs(top - rep.norm) <= 4.0 * np.spacing(top)


@pytest.mark.parametrize("alpha", [0.5, 2.5, 10.0, 40.0, 80.0])
def test_sup_norm_H_is_the_top_of_its_lobe_to_a_few_ulps(h_norm, alpha):
    # Newton's method on the lobe's local series lands on its top; golden
    # section closed at xtol = 1e-5, up to 5e-13 relative below it
    rep = h_norm(alpha)
    x = rep.argmax + np.linspace(-1e-6, 1e-6, 2001)
    top = (np.abs(np.sin(x)) * kernel_values("H1", alpha, x)).max()
    assert abs(top - rep.norm) <= 2.0 * np.spacing(top)


@pytest.mark.parametrize("search", [sup_norm_H, sup_norm_H1])
def test_sup_norms_make_no_scalar_quadrature_call(search, monkeypatch):
    # deterministic work gate: every lobe is polished on batched kernel values
    calls = []
    monkeypatch.setattr(kernels, "kernel_eval", lambda *args: calls.append(args))
    search(40.0)
    assert calls == []


def test_sup_norm_H_polishes_on_interpolants(monkeypatch):
    # deterministic work gate: the lobes are polished on interpolants of J
    # built from one batch, not by a golden section through the quadrature
    # (514 level runs at these four alpha when every golden step integrated)
    calls = []
    run_levels = quadrature._run_levels

    def counting(*args, **kwargs):
        calls.append(None)
        return run_levels(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_run_levels", counting)
    for alpha in (10.0, 20.0, 40.0, 80.0):
        sup_norm_H(alpha)
    assert len(calls) <= 120


def test_sup_norm_H1_domain():
    with pytest.raises(ValueError):
        sup_norm_H1(1.0)


def test_sup_norm_report_invariants():
    with pytest.raises(ValueError):
        SupNormReport(norm=1.0, argmax=1.0, truncation_X=5.0, tail_bound=2.0, local_maxima=[(1.0, 1.0)])
    with pytest.raises(ValueError):
        SupNormReport(norm=1.0, argmax=1.0, truncation_X=5.0, tail_bound=0.1, local_maxima=[(1.0, 0.5)])


# ---------------------------------------------------------------------------
# closed-form L1/L2 constants
# ---------------------------------------------------------------------------


def test_delta_closed_values():
    assert abs(delta_1_closed(1.0) - PI**2 / 4.0) <= 1e-10
    assert abs(delta_2_closed(1.0) - 2.0 / PI * math.sqrt(PI / 3.0)) <= 1e-10
    assert abs(delta_1_closed(2.0)) <= 1e-14  # sin(pi) = 0


@pytest.mark.parametrize("alpha", [0.5, 1.3])
def test_delta_closed_vs_bruteforce(alpha):
    """Closed forms against direct-summation / quadrature evaluation."""
    b1 = (
        abs(math.sin(PI * alpha / 2.0))
        / PI
        * 8.0
        * specfun.gamma(alpha + 1.0)
        * oracles.direct_alternating_odd_sum(alpha + 2.0)
    )
    assert abs(delta_1_closed(alpha) - b1) <= 1e-10
    gamma_quad = integrate_zero_to_inf(lambda t: np.exp(alpha * np.log(t) - t)).value
    b2 = abs(math.sin(PI * alpha / 2.0)) / PI * 2.0 * gamma_quad * math.sqrt(PI / (2.0 * alpha + 1.0))
    assert abs(delta_2_closed(alpha) - b2) <= 1e-10


def test_delta_domains():
    with pytest.raises(ValueError):
        delta_1_closed(-1.0)
    with pytest.raises(ValueError):
        delta_2_closed(-0.5)
    for delta in (delta_1_closed, delta_2_closed):
        with pytest.raises(ValueError, match=rf"^{delta.__name__} requires finite alpha.*got inf"):
            delta(math.inf)
