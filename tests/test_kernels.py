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


def test_D_vs_midpoint_oracle():
    oracle = oracles.midpoint_power_cosh(3.0)
    assert abs(D_const(3.0) - oracle) <= 1e-9


def test_constants_domain():
    with pytest.raises(ValueError):
        C_const(0.0)
    with pytest.raises(ValueError):
        D_const(-1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: C_const(170.0),
        lambda: C_const(171.0),
        lambda: D_const(172.0),
        lambda: sup_norm_H1(170.0),
    ],
    ids=["C_const-170", "C_const-171", "D_const-172", "sup_norm_H1-170"],
)
def test_overflowed_row_sum_raises_not_inf(call):
    # C(170) ~ 1.45e307 is a double and so is every integrand value, but the
    # quadrature's row sums overflow: that is an error, not an inf result
    with pytest.raises(QuadratureError, match="did not converge: value=inf"):
        call()


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


# the integrand matrices as plain expressions: the in-place builds must
# reproduce them bit for bit
_REFERENCE_MATS = {
    "J": lambda a, x, t: (
        np.exp(a * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t)) * (x / (x * x + t * t))
    ),
    "A0": lambda a, x, t: (
        np.exp((a - 1.0) * np.log(t) - t) * 2.0 / (1.0 + np.exp(-2.0 * t)) * (x * x / (x * x + t * t))
    ),
    "F": lambda a, x, t: (
        lambda xt: np.exp(a * np.log(t) - xt) * 2.0 / (-np.expm1(-2.0 * xt)) / (1.0 + t * t)
    )(x * t),
    "G": lambda a, x, t: np.exp(a * np.log(t) - x * t) / (1.0 + t * t),
}


def _node_rows():
    """Each level's nodes on both sides of the split: the cached read-only
    tables every rule reads, whose factors kernels keeps."""
    split = quadrature.SPLIT_POINT
    for level in range(quadrature.MAX_LEVELS):
        yield quadrature._xw(0.0, split, level)[0]
        yield quadrature._xw(split, None, level)[0]


@pytest.mark.parametrize("name", sorted(_REFERENCE_MATS))
def test_in_place_integrands_are_bit_equal(name):
    build = getattr(kernels, f"_{name}_mat")
    x = np.geomspace(1e-3, 1e3, 49)[:, None]
    # 80 comes back after 1, so that a row kept for a stale alpha would show;
    # the last alpha is an (m, 1) column, one alpha per row of x
    alphas = (0.05, 80.0, 1.0, 80.0, 2.5, np.geomspace(0.05, 80.0, len(x))[:, None])
    with np.errstate(all="ignore"):  # F at alpha = 80, x = 1e-3 overflows, as it should
        for t in _node_rows():
            for alpha in alphas:
                got, ref = build(alpha, x, t), _REFERENCE_MATS[name](alpha, x, t)
                assert got.shape == ref.shape == (len(x), len(t))
                assert np.array_equal(got, ref), (alpha, len(t))


def test_node_factors_are_kept_for_read_only_tables_only():
    # the deepest exp-sinh nodes overflow t * t, as under the quadrature
    with np.errstate(over="ignore", under="ignore"):
        cached = quadrature._xw(quadrature.SPLIT_POINT, None, 3)[0]
        assert kernels._nodes(cached) is kernels._nodes(cached)
        row = kernels._pow_over_sinh(2.5, cached)
        assert kernels._pow_over_sinh(2.5, cached) is row and not row.flags.writeable
        # a new alpha replaces the row; the old alpha is computed again, equal
        assert kernels._pow_over_sinh(3.0, cached) is not row
        assert np.array_equal(kernels._pow_over_sinh(2.5, cached), row)
    # a read-only array that dies takes its factors with it
    table = np.linspace(0.1, 1.0, 7)
    table.flags.writeable = False
    kernels._nodes(table)
    key = id(table)
    assert key in kernels._NODES
    del table
    assert key not in kernels._NODES


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
