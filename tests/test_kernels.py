import math

import mpmath
import numpy as np
import pytest

from bernsteinlab import kernels, quadrature, specfun
from bernsteinlab.entire import beta_point
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
from bernsteinlab.quadrature import integrate_zero_to_inf

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


def test_D_vs_midpoint_oracle():
    oracle = oracles.midpoint_power_cosh(3.0)
    assert abs(D_const(3.0) - oracle) <= 1e-9


def test_constants_domain():
    with pytest.raises(ValueError):
        C_const(0.0)
    with pytest.raises(ValueError):
        D_const(-1.0)


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


# the integrand matrices as plain expressions: the in-place builds must
# reproduce them bit for bit
_REFERENCE_MATS = {
    "J": lambda a, x, t: kernels._pow_over_sinh(a, t) * (x / (x * x + t * t)),
    "A0": lambda a, x, t: kernels._pow_over_cosh(a - 1.0, t) * (x * x / (x * x + t * t)),
    "F": lambda a, x, t: (
        lambda xt: np.exp(a * np.log(t) - xt) * 2.0 / (-np.expm1(-2.0 * xt)) / (1.0 + t * t)
    )(x * t),
    "G": lambda a, x, t: np.exp(a * np.log(t) - x * t) / (1.0 + t * t),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_MATS))
def test_in_place_integrands_are_bit_equal(name):
    build = getattr(kernels, f"_{name}_mat")
    x = np.geomspace(1e-3, 1e3, 49)[:, None]
    split = quadrature.SPLIT_POINT
    parts = (quadrature._finite_xw(0.0, split), quadrature._semi_xw(split))
    with np.errstate(all="ignore"):  # F at alpha = 80, x = 1e-3 overflows, as it should
        for part in parts:
            for level in range(quadrature.MAX_LEVELS):
                t, _ = part(level)
                for alpha in (0.05, 1.0, 2.5, 80.0):
                    got, ref = build(alpha, x, t), _REFERENCE_MATS[name](alpha, x, t)
                    assert got.shape == ref.shape == (len(x), len(t))
                    assert np.array_equal(got, ref), (alpha, level)


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


@pytest.mark.parametrize("search", [sup_norm_H, sup_norm_H1])
def test_sup_norms_make_no_scalar_quadrature_call(search, monkeypatch):
    # deterministic work gate: every lobe is polished on batched kernel values
    calls = []
    monkeypatch.setattr(kernels, "kernel_eval", lambda *args: calls.append(args))
    search(40.0)
    assert calls == []


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
