import dataclasses
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from bernsteinlab import kernels, nearbest
from bernsteinlab.chebinterp import build_nodes, interp_eval
from bernsteinlab.nearbest import (
    GridCache,
    NearBestSolution,
    alternation_points,
    build_cache,
    interp_points,
    limit_error,
    p3_poly,
)

from conftest import DELTA_INF

PI = math.pi

# published fit table: alpha -> (c1, c2)
C_TABLE = {
    0.3: (0.36, 1.32),
    0.5: (0.33, 0.78),
    0.8: (0.28, 0.51),
    1.0: (0.26, 0.45),
    1.5: (0.19, 0.41),
    1.9: (0.10, 0.49),
}

# published near-best interpolation points x_1*..x_10*
X_TABLE = {
    0.5: [0.13, 2.10, 4.99, 8.04, 11.13, 14.25, 17.37, 20.50, 23.63, 26.76],
    0.8: [0.25, 2.30, 5.15, 8.16, 11.22, 14.32, 17.43, 20.55, 23.67, 26.80],
    1.0: [0.34, 2.38, 5.24, 8.23, 11.28, 14.36, 17.47, 20.58, 23.70, 26.83],
}


@pytest.fixture(scope="module")
def cache_half():
    return build_cache(0.5)


def test_limit_error_vanishes_with_sin_factor():
    for k in (1, 2, 3):
        assert abs(limit_error(1.0, 0.0, 0.0, k * PI)) <= 1e-12


def test_limit_error_vanishes_with_cos_factor():
    for k in (0, 1, 2):
        assert abs(limit_error(1.0, 1.0, 0.0, (k + 0.5) * PI)) <= 1e-12


def test_limit_error_at_zero_is_correction_value():
    assert limit_error(0.5, 0.33, 0.78, 0.0) == -(2.0 / PI) * math.sin(PI * 0.25) * 0.78


def test_limit_error_cache_matches_direct(cache_half):
    # with the cache, on- and off-grid points both come from the interpolants
    direct = limit_error(0.5, 0.33, 0.78, 4.0)
    assert abs(limit_error(0.5, 0.33, 0.78, 4.0, cache=cache_half) - direct) <= 1e-9
    xg = float(cache_half.xs[123])
    cached = limit_error(0.5, 0.33, 0.78, xg, cache=cache_half)
    assert abs(cached - limit_error(0.5, 0.33, 0.78, xg)) <= 1e-9


def test_limit_error_linear_decomposition(cache_half):
    # E is linear in (c1, c2): recombining the three cached basis curves must
    # reproduce it exactly
    c1, c2 = 0.31, 0.9
    xs = cache_half.xs[::50]
    pref = (2.0 / PI) * math.sin(PI * 0.25)
    b1 = np.cos(xs) * cache_half.grid_kernels[0, ::50]
    b2 = np.sin(xs) * cache_half.grid_kernels[1, ::50]
    b3 = np.sin(xs) / xs
    combined = pref * (c1 * b1 + (1.0 - c1) * b2 - c2 * b3)
    for x, ref in zip(xs, combined):
        assert abs(limit_error(0.5, c1, c2, float(x), cache=cache_half) - ref) <= 1e-12


def _node_vals(pieces):
    return np.zeros((pieces, 2, nearbest._DEGREE + 1))


def test_grid_cache_step_invariant(monkeypatch):
    # the scan grid is derived from the breaks, bit for bit the pi/100 grid
    # that build_cache lays to x_max; the kernels are stubbed, only the grid
    # is checked
    monkeypatch.setattr(nearbest, "kernel_values", lambda kind, alpha, x: np.zeros_like(x))
    for x_max in (0.05, 40.0 * PI, 1e4 * PI):
        expected = np.arange(PI / 100.0, x_max + PI / 200.0, PI / 100.0)
        assert np.array_equal(build_cache(1.0, x_max=x_max).xs, expected), x_max


def test_grid_cache_refuses_interpolants_not_covering_grid():
    # the grid runs from breaks[0] to breaks[-1], so it is covered by
    # construction; the breaks must be increasing and keep the grid off x = 0
    xs = GridCache(1.0, np.array([0.1, 0.19]), _node_vals(1)).xs
    assert len(xs) == 3 and xs[0] == 0.1 and xs[-1] <= 0.19
    with pytest.raises(ValueError, match="increasing"):
        GridCache(1.0, np.array([0.1, 0.2, 0.2]), _node_vals(2))
    with pytest.raises(ValueError, match="positive"):
        GridCache(1.0, np.array([0.0, 0.2]), _node_vals(1))
    with pytest.raises(ValueError, match="positive"):
        GridCache(1.0, np.array([-0.1, 0.2]), _node_vals(1))
    with pytest.raises(ValueError, match="pieces"):
        GridCache(1.0, np.array([0.1, 0.15, 0.2]), _node_vals(1))


@pytest.mark.parametrize("x_max", [0.02, 1.5 * PI / 100.0, 0.0, -1.0, math.nan, math.inf])
def test_build_cache_rejects_x_max_leaving_no_grid(x_max, monkeypatch):
    # refused by name before any kernel is evaluated
    monkeypatch.setattr(nearbest, "kernel_values", None)
    with pytest.raises(ValueError, match="x_max"):
        build_cache(1.0, x_max=x_max)


@pytest.mark.parametrize("x_max", [math.nextafter(1e4 * PI, math.inf), 1e7 + 1.0, 1e8 * PI])
def test_build_cache_rejects_x_max_past_a_million_grid_points(x_max, monkeypatch):
    # the pi/100 grid would hold more than 10^6 points: refused by name
    # before any array is built or kernel evaluated
    monkeypatch.setattr(nearbest, "kernel_values", None)
    with pytest.raises(ValueError, match="x_max"):
        build_cache(1.0, x_max=x_max)


def test_build_cache_takes_a_million_grid_points(monkeypatch):
    # the bound is inclusive: `table interp_points --jmax 9998` asks for
    # (9998 + 2) pi; the kernels are stubbed, only the grid is checked
    monkeypatch.setattr(nearbest, "kernel_values", lambda kind, alpha, x: np.zeros_like(x))
    assert len(build_cache(1.0, x_max=(9998 + 2.0) * PI).xs) == 1_000_000


def test_build_cache_evaluates_kernels_only_at_interpolation_nodes(monkeypatch):
    # deterministic work gate: one kernel_values call per kernel, at the 25
    # Chebyshev points of each of the 46 pieces; the scan grid's 4,000 points
    # take their kernels from the interpolants
    batches = []
    kernel_values = nearbest.kernel_values

    def counting_kernel_values(kind, alpha, x):
        batches.append(np.size(x))
        return kernel_values(kind, alpha, x)

    monkeypatch.setattr(nearbest, "kernel_values", counting_kernel_values)
    cache = build_cache(1.0)
    assert len(cache.xs) == 4000 and len(cache.breaks) == 47
    assert batches == [1150, 1150]
    # and the cache holds no kernel values besides the interpolants' own
    assert [f.name for f in dataclasses.fields(GridCache)] == ["alpha", "breaks", "node_vals"]


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.9])
def test_grid_kernels_are_the_interpolants(alpha):
    # interpolated in blocks, yet bit-equal to one unblocked call over the
    # whole grid (a 2-D x is not split)
    cache = build_cache(alpha)
    whole = nearbest._interpolated_kernels(cache, cache.xs[None, :])[0]
    assert np.array_equal(cache.grid_kernels, whole.T)


def test_limit_error_over_many_points_holds_bounded_temporaries():
    # the interpolation works through a long x in blocks: 10^5 points once
    # held about 86 MB of temporaries at the peak
    cache = build_cache(1.0)
    x = np.linspace(0.1, 120.0, 10**5)
    tracemalloc.start()
    try:
        limit_error(1.0, 0.26, 0.45, x, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_build_cache_smallest_grid():
    cache = build_cache(1.0, x_max=0.05)
    assert len(cache.xs) == 2


def test_optimize_c_finds_the_roots_once(monkeypatch):
    # one search for the ten roots that `table interp_points` prints
    calls = []
    find_roots = nearbest.interp_points

    def counting_interp_points(*args, **kwargs):
        calls.append(args[3])
        return find_roots(*args, **kwargs)

    monkeypatch.setattr(nearbest, "interp_points", counting_interp_points)
    sol = nearbest.optimize_c(1.0)
    assert calls == [10]
    assert len(sol.interp_points) == 10


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize(
    "x",
    [
        math.inf,
        math.nan,
        -1.0,
        np.array([2.0, -1.0, math.inf]),
        np.array([[0.0, 1.0], [math.nan, -3.0]]),
    ],
)
def test_limit_error_rejects_bad_x(x, cached, cache_half):
    # the first bad x, in x's order, is named
    bad = [v for v in np.ravel(x) if not 0.0 <= v < math.inf][0]
    with pytest.raises(ValueError, match=f"x must be finite and >= 0, got {bad}"):
        limit_error(0.5, 0.2, 0.4, x, cache=cache_half if cached else None)


@pytest.mark.parametrize("cached", [False, True])
def test_limit_error_array_matches_float_calls(cached, cache_half):
    # x = 0, x on and off the cache grid, and one x the interpolants do not
    # span: below pi/100 with the cache, any x > 0 without.  With one such x
    # per call its quadrature batch has one row, as a float call's has, so
    # every entry keeps the float call's bits; the shape is x's
    cache = cache_half if cached else None
    if cached:
        x = np.array([[0.0, PI / 300.0, 4.0], [float(cache_half.xs[123]), 17.3, 0.5]])
    else:
        x = np.array([[0.0], [4.0]])
    got = limit_error(0.5, 0.33, 0.78, x, cache=cache)
    assert got.shape == x.shape
    for i in np.ndindex(x.shape):
        assert got[i] == limit_error(0.5, 0.33, 0.78, float(x[i]), cache=cache)


def test_limit_error_off_cache_points_share_one_batch(monkeypatch):
    # several x off the interpolants take each kernel from one batch, whose
    # rows converge together: float calls agree to the quadrature's tolerance
    xs = np.array([PI / 300.0, 0.5, 2.0, 7.0, 30.0])
    batches = []
    kernel_values = nearbest.kernel_values

    def counting_kernel_values(kind, alpha, x):
        batches.append(np.size(x))
        return kernel_values(kind, alpha, x)

    monkeypatch.setattr(nearbest, "kernel_values", counting_kernel_values)
    got = limit_error(0.1, 0.3, 0.8, xs)
    assert batches == [len(xs), len(xs)]
    for x, g in zip(xs, got):
        ref = limit_error(0.1, 0.3, 0.8, float(x))
        assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.0, 1.5, 1.9])
def test_interpolants_match_quadrature(alpha):
    # both ends and two interior points of every piece, the graded ones near
    # pi/100 included, plus a point below pi/100 where the cache defers to
    # quadrature; the bound is the quadrature's own rel_tol
    cache = build_cache(alpha)
    lo, hi = cache.breaks[:-1], cache.breaks[1:]
    xs = np.concatenate([[PI / 300.0], cache.breaks, lo + 0.37 * (hi - lo), lo + 0.81 * (hi - lo)])
    c1, c2 = 0.3, 0.8
    for x in xs:
        cached = limit_error(alpha, c1, c2, float(x), cache=cache)
        direct = limit_error(alpha, c1, c2, float(x))
        assert abs(cached - direct) <= 1e-12 * max(1.0, abs(direct)), x


def test_interpolated_H1_matches_gauss_legendre_oracle():
    # the fixed Gauss-Legendre oracle resolves x/(x^2+t^2) for x >= pi at
    # alpha = 1 (about 1e-15 there); smaller x or fractional alpha it does not
    cache = build_cache(1.0)
    xs = np.linspace(PI, 40.0 * PI, 3001)
    h1 = nearbest._interpolated_kernels(cache, xs)[:, 1]
    ref = oracles.gl_sinh_kernel_grid(1.0, xs)
    assert np.max(np.abs(h1 - ref) / ref) <= 1e-13


def test_optimize_c_makes_no_quadrature_call(monkeypatch):
    # deterministic work gate: once build_cache has run, every kernel value the
    # fit at alpha = 1 needs comes from the cache, inside the exchange and out
    # of it
    calls = {"integrals": 0, "at_cache": None, "in_minimize": 0}
    integrate, build_cache, minimize = (
        kernels.integrate_zero_to_inf,
        nearbest.build_cache,
        nearbest.minimize,
    )

    def counting_integrate(f, *args):
        calls["integrals"] += 1
        return integrate(f, *args)

    def marking_build_cache(*args, **kwargs):
        cache = build_cache(*args, **kwargs)
        calls["at_cache"] = calls["integrals"]
        return cache

    def counting_minimize(*args, **kwargs):
        before = calls["integrals"]
        out = minimize(*args, **kwargs)
        calls["in_minimize"] += calls["integrals"] - before
        return out

    monkeypatch.setattr(kernels, "integrate_zero_to_inf", counting_integrate)
    monkeypatch.setattr(nearbest, "build_cache", marking_build_cache)
    monkeypatch.setattr(nearbest, "minimize", counting_minimize)
    nearbest.optimize_c(1.0)
    assert calls["at_cache"] > 0
    assert calls["integrals"] == calls["at_cache"]
    assert calls["in_minimize"] == 0


def test_optimize_c_searches_roots_and_extrema_in_lockstep(monkeypatch):
    # deterministic work gate: outside the exchange a fit searches roots only
    # through limit_error, in one bisection over an array of brackets, so it
    # makes a couple dozen limit_error calls, not one search per bracket (713
    # for `table interp_points --alpha 1 --jmax 10` once); its lobe polish
    # reads the interpolants directly
    calls = {"total": 0, "in_minimize": 0}
    limit_error_, minimize = nearbest.limit_error, nearbest.minimize

    def counting_limit_error(*args, **kwargs):
        calls["total"] += 1
        return limit_error_(*args, **kwargs)

    def counting_minimize(*args, **kwargs):
        before = calls["total"]
        out = minimize(*args, **kwargs)
        calls["in_minimize"] += calls["total"] - before
        return out

    monkeypatch.setattr(nearbest, "limit_error", counting_limit_error)
    monkeypatch.setattr(nearbest, "minimize", counting_minimize)
    nearbest.optimize_c(1.0)
    assert 0 < calls["total"] - calls["in_minimize"] <= 30


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time; only optimize_c loads it
    code = "import sys, bernsteinlab, bernsteinlab.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_package_import_leaves_fft_polynomial_and_scipy_unloaded():
    # the polish takes its interpolants' tails by small dot products, not a
    # DCT: importing the package, the CLI included, loads no FFT,
    # numpy.polynomial or scipy module (each would add to the import time)
    code = (
        "import sys, bernsteinlab, bernsteinlab.cli; "
        "print([m for m in sys.modules if m.startswith(('numpy.fft', 'numpy.polynomial', 'scipy'))])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_fit_leaves_scipy_unloaded():
    # the exchange is numpy alone: a fit loads no part of scipy
    code = "import sys, bernsteinlab; bernsteinlab.optimize_c(1.0); print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.9])
def test_exchange_level_matches_highs(alpha):
    # round 0 of the fit (the grid, x = 0 and x -> inf) solved by HiGHS, which
    # shares no code with the exchange
    cache = build_cache(alpha)
    _, a, b = nearbest._fixed_rows(cache, kernels.D_const(alpha))
    res = nearbest.minimize(a, b)
    lp = oracles.linf_fit_lp(a, b)
    assert res.success
    assert abs(res.fun - lp) <= 1e-12 * lp


def test_exchange_solves_a_small_chebyshev_fit():
    # min over (c0, c1) of max |c0 + c1 t - t^2| on t in {0, 0.5, 1, 0.25}:
    # the line t - 1/8 levels 1/8 at t = 0, 0.5 and 1
    t = np.array([0.0, 0.5, 1.0, 0.25])
    res = nearbest.minimize(np.stack([np.ones_like(t), t], axis=1), -(t**2))
    assert res.success and res.nfev <= 3
    assert np.allclose(res.x, [-0.125, 1.0], rtol=0.0, atol=1e-15)
    assert abs(res.fun - 0.125) <= 1e-15
    assert sorted(res.ref.tolist()) == [0, 1, 2]


@pytest.mark.parametrize("alpha", [round(0.1 * k, 1) for k in range(1, 20)])
def test_fit_is_certified(alpha, nb_solution):
    # the lower bound is the level of an exchange reference and the minimax
    # the polished sup: they agree to 1e-12 relative
    sol = nb_solution(alpha)
    assert sol.lower_bound <= sol.minimax <= (1.0 + 1e-12) * sol.lower_bound


def test_lower_bound_not_above_minimax_at_alpha_0_17():
    # the computed level of a final reference can sit a few ulps above the
    # polished sup; here it once did by 2 ulps, and the fit raised ValueError
    sol = nearbest.optimize_c(0.17)
    assert sol.lower_bound <= sol.minimax <= (1.0 + 1e-12) * sol.lower_bound


def test_weights_have_the_bits_of_np_cross():
    # three cofactors in np.cross's order of products, on rows spanning
    # 1e-5 to 1e5 in size and of either sign
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        a = rng.choice([-1.0, 1.0], size=(3, 2)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(3, 2))
        assert np.array_equal(nearbest._weights(a), np.cross(a[:, 0], a[:, 1]))


def test_level_is_rounded_below_its_exact_value():
    # the rounded-down level against the exact level of the same weights, in
    # rational arithmetic: random rows, and rows whose terms share a sign,
    # where it is rounded down by 8 u |h|, to within an ulp
    rng = np.random.default_rng(7)
    for same_sign in (False, True):
        for _ in range(500):
            w = rng.normal(size=3) * 10.0 ** rng.uniform(-4.0, 4.0, size=3)
            b = rng.normal(size=3) * 10.0 ** rng.uniform(-4.0, 4.0, size=3)
            if same_sign:
                b = np.sign(w) * np.abs(b)
            h, low = nearbest._level(w, b)
            terms = [Fraction(float(wi)) * Fraction(float(bi)) for wi, bi in zip(w, b)]
            exact = abs(sum(terms) / sum(abs(Fraction(float(wi))) for wi in w))
            assert Fraction(low) <= exact
            if same_sign:
                assert abs(h) - low <= 8.0 * 2.0**-53 * abs(h) + np.spacing(abs(h))


def test_fit_at_alpha_1_9_closes_on_two_rows(nb_solution):
    # only x = 0 and the lobe near 4.28 are active, and c1 is nearly free:
    # the exchange's rounds do not settle and the two-row step closes the
    # fit; its sup is no higher than the Nelder-Mead descent's 0.0483407621494299
    sol = nb_solution(1.9)
    assert sol.minimax - sol.lower_bound <= 1e-12 * sol.lower_bound
    assert abs(sol.c1 - 0.118929) <= 1e-5
    assert sol.minimax <= 0.0483407621494299


@pytest.mark.parametrize("alpha,most", [(1.0, 4), (1.9, 8)])
def test_fit_takes_few_exchanges(alpha, most, monkeypatch):
    # deterministic work gate: a fit solves a handful of times (3 at
    # alpha = 1, where a Nelder-Mead descent needs 180 objective calls)
    calls = []
    minimize = nearbest.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(nearbest, "minimize", counting_minimize)
    nearbest.optimize_c(alpha)
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_optimize_matches_published_constants(alpha, nb_solution):
    sol = nb_solution(alpha)
    c1_ref, c2_ref = C_TABLE[alpha]
    assert abs(sol.c1 - c1_ref) <= 0.03
    assert abs(sol.c2 - c2_ref) <= 0.03
    assert sol.minimax >= DELTA_INF[alpha]
    assert sol.minimax <= 1.1 * DELTA_INF[alpha]


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0])
def test_minimax_bounds_a_dense_scan(alpha, nb_solution):
    # every lobe of |E| on (0, 40 pi] counts, not only the top few grid lobes:
    # 400,001 points on the fit's interpolants, in blocks; near
    # equioscillation about 80 lobes lie within 1e-5 of each other
    sol = nb_solution(alpha)
    xs = np.linspace(PI / 100.0, 40.0 * PI, 400_001)
    dense = max(
        np.abs(nearbest._interpolated_error(sol.cache, sol.c1, sol.c2, xs[i : i + 16384])).max()
        for i in range(0, len(xs), 16384)
    )
    assert sol.minimax >= dense * (1.0 - 1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
def test_minimax_bounds_the_far_lobes(alpha, nb_solution):
    # as x -> inf, A0 -> D(alpha) and H1 ~ C(alpha)/x, so the lobes of E tend
    # to the amplitude |p c1| D(alpha) (D in closed form, in mpmath), which
    # at alpha <= 0.3 is above every lobe on (0, 40 pi]
    sol = nb_solution(alpha)
    p = (2.0 / PI) * math.sin(0.5 * PI * alpha)
    assert sol.minimax >= abs(p * sol.c1) * oracles.D_closed_mp(alpha) * (1.0 - 1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
def test_far_lobes_approach_their_amplitude_from_below(alpha, nb_solution):
    # the squared lobe amplitude is (c1 D)^2 + (B0^2 - 2 c1^2 D(alpha) D(alpha+2))/x^2
    # + O(x^-4), with B0 = (1 - c1) C(alpha) - c2: its 1/x^2 term is negative
    sol = nb_solution(alpha)
    b0 = (1.0 - sol.c1) * oracles.C_closed_mp(alpha) - sol.c2
    d = oracles.D_closed_mp(alpha)
    assert b0**2 < 2.0 * sol.c1**2 * d * oracles.D_closed_mp(alpha + 2.0)


def test_optimize_error_names_the_best_point(monkeypatch):
    # an exchange that does not converge reports where it stopped, and the
    # polished sup there, in its message
    class Unconverged:
        success, message, x, fun = False, "too many evaluations", np.array([0.25, 0.5]), 0.3

    monkeypatch.setattr(nearbest, "minimize", lambda *args, **kwargs: Unconverged)
    tail = (2.0 / PI) * kernels.D_const(1.0)
    sup = nearbest._polished_sup(build_cache(1.0), 0.25, 0.5, tail)
    with pytest.raises(nearbest.OptimizeError, match=rf"best \(c1, c2, sup\) = \(0.25, 0.5, {sup}\)"):
        nearbest.optimize_c(1.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.9])
def test_polished_sup_is_midpoint_convex(alpha):
    # E is affine in (c1, c2) at each x, so the sup the fit minimizes is
    # convex in them: every local minimum is global.  Pairs drawn from the
    # box a seed search once needed
    cache = build_cache(alpha)
    tail = (2.0 / PI) * math.sin(0.5 * PI * alpha) * kernels.D_const(alpha)
    rng = np.random.default_rng(13)
    for _ in range(40):
        a, b = rng.uniform((-0.2, -0.5), (0.9, 6.5), size=(2, 2))
        ends = [nearbest._polished_sup(cache, *c, tail) for c in (a, b)]
        mid = nearbest._polished_sup(cache, *(0.5 * (a + b)), tail)
        assert mid <= 0.5 * (ends[0] + ends[1]) * (1.0 + 1e-12), (a, b)


@pytest.mark.parametrize("start", [(0.3, 2.5), (1.0, 1.0)])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_fit_does_not_depend_on_its_start(alpha, start, nb_solution):
    # the objective is convex, so a Nelder-Mead descent over the polished sup
    # from either start ends at the exchange's fit, to the descent's own
    # tolerances
    shipped = nb_solution(alpha)
    tail = (2.0 / PI) * math.sin(0.5 * PI * alpha) * kernels.D_const(alpha)
    c, sup = oracles.nelder_mead_min(
        lambda c: nearbest._polished_sup(shipped.cache, c[0], c[1], tail), start
    )
    assert abs(c[0] - shipped.c1) <= 1e-5 and abs(c[1] - shipped.c2) <= 1e-5
    assert abs(sup - shipped.minimax) <= 1e-9 * shipped.minimax


def test_optimize_domain():
    with pytest.raises(ValueError):
        nearbest.optimize_c(2.5)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_interp_points_reproduce_published_rows(alpha):
    c1, c2 = C_TABLE[alpha]
    pts = interp_points(alpha, c1, c2, 10)
    assert np.max(np.abs(pts - np.array(X_TABLE[alpha]))) <= 0.03


def test_interp_points_spacing_tends_to_pi():
    # x_{j+1} - x_j increases towards pi from below
    c1, c2 = C_TABLE[0.8]
    pts = interp_points(0.8, c1, c2, 10)
    gaps = np.diff(pts)[5:]
    assert (np.diff(gaps) > 0.0).all()
    assert (gaps < PI).all()
    assert abs(pts[9] - 26.80) <= 0.05


def test_interp_points_brackets():
    c1, c2 = C_TABLE[0.5]
    pts = interp_points(0.5, c1, c2, 10)
    for j, x in enumerate(pts, start=1):
        if j >= 2:
            assert (j - 1.5) * PI <= x <= (j - 0.5) * PI


def test_too_many_roots_requested(cache_half, monkeypatch):
    # more roots than the largest cache holds are refused by name, before any
    # cache is built
    monkeypatch.setattr(nearbest, "build_cache", None)
    with pytest.raises(ValueError, match=r"j_max must be an integer in \[1, 9998\], got 9999$"):
        interp_points(0.5, 0.33, 0.78, nearbest.MAX_ROOTS + 1, cache=cache_half)
    # alternation_points needs j_max + 1 roots and names the j_max it was given
    for j_max in (nearbest.MAX_ROOTS, -1):
        with pytest.raises(ValueError, match=rf"j_max must be an integer in \[0, 9997\], got {j_max}$"):
            alternation_points(0.5, 0.33, 0.78, j_max, cache=cache_half)
    for find in (interp_points, alternation_points):
        with pytest.raises(ValueError, match=r"j_max must be an integer in .*, got 2\.5$"):
            find(0.5, 0.33, 0.78, 2.5, cache=cache_half)
    assert alternation_points(0.5, 0.33, 0.78, 0, cache=cache_half) == [
        (0.0, limit_error(0.5, 0.33, 0.78, 0.0))
    ]
    # a grid with fewer sign changes than the roots asked for raises: E = 0
    # everywhere, from kernels that vanish and c2 = 0, has none
    flat = dataclasses.replace(cache_half, node_vals=np.zeros_like(cache_half.node_vals))
    with pytest.raises(RuntimeError, match="only 0 roots"):
        interp_points(0.5, 0.33, 0.0, 5, cache=flat)


def test_short_cache_for_the_right_alpha_is_not_reused():
    # the default cache spans 40 pi and holds 41 roots; a search for more
    # builds its own grid, as it does without a cache
    cache = build_cache(1.0)
    c1, c2 = 0.2458, 0.4456
    want = interp_points(1.0, c1, c2, 50)
    assert len(want) == 50
    assert np.array_equal(interp_points(1.0, c1, c2, 50, cache=cache), want)
    assert alternation_points(1.0, c1, c2, 45, cache=cache) == alternation_points(1.0, c1, c2, 45)


def test_alternation_points_structure(cache_half):
    c1, c2 = C_TABLE[0.5]
    alts = alternation_points(0.5, c1, c2, 6, cache=cache_half)
    assert alts[0][0] == 0.0
    ys = [y for y, _ in alts]
    errs = [e for _, e in alts]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    # consecutive extrema alternate in sign
    assert all(a * b < 0.0 for a, b in zip(errs, errs[1:]))
    # per-period bracket constraints
    for j, y in enumerate(ys):
        if j >= 1:
            assert (j - 1.0) * PI <= y <= j * PI


def test_alternation_near_equioscillation_alpha1(nb_solution):
    sol = nb_solution(1.0)
    alts = alternation_points(1.0, sol.c1, sol.c2, 10, cache=sol.cache)
    for j, (y, _) in enumerate(alts[1:], start=1):
        assert (j - 1.0) * PI <= y <= j * PI
    mags = [abs(e) for _, e in alts[1:7]]
    mean = sum(mags) / len(mags)
    assert all(abs(m - mean) <= 0.1 * mean for m in mags)


def test_alternation_level_near_best_constant(nb_solution):
    sol = nb_solution(0.5)
    alts = alternation_points(0.5, sol.c1, sol.c2, 10, cache=sol.cache)
    for j, (y, _) in enumerate(alts[1:], start=1):
        assert (j - 1.0) * PI <= y <= j * PI
    peak = max(abs(e) for _, e in alts)
    assert DELTA_INF[0.5] <= peak <= 1.1 * DELTA_INF[0.5]


def test_solution_invariants_enforced():
    good = np.array([0.13, 2.10, 4.99])
    with pytest.raises(ValueError, match="increasing"):
        NearBestSolution(0.5, 0.3, 0.8, 0.35, 0.34, good[::-1])
    with pytest.raises(ValueError, match="outside"):
        NearBestSolution(0.5, 0.3, 0.8, 0.35, 0.34, np.array([0.13, 9.0]))
    with pytest.raises(ValueError, match="lower bound"):
        NearBestSolution(0.5, 0.3, 0.8, 0.35, 0.36, good)


def test_p3_at_zero_value():
    # both interpolants vanish at 0; only the Chebyshev correction survives
    c1, c2 = C_TABLE[0.5]
    expect = (2.0 / PI) * math.sin(PI * 0.25) * c2 * 8.0**-0.5
    assert abs(p3_poly(0.5, 4, c1, c2, 0.0) - expect) <= 1e-13


def test_p3_beats_plain_interpolation():
    c1, c2 = C_TABLE[0.5]
    s = build_nodes("P2", 4)
    xs = np.linspace(0.0, 1.0, 2001)
    p3_err = max(abs(abs(x) ** 0.5 - p3_poly(0.5, 4, c1, c2, x)) for x in xs)
    p2_err = np.max(np.abs(xs**0.5 - interp_eval(s, 0.5, xs)))
    assert p3_err <= p2_err


def test_p3_scaled_error_approaches_minimax(nb_solution):
    sol = nb_solution(1.0)
    n = 64
    xs = np.linspace(0.0, 1.0, 4001)
    sup = max(abs(abs(x) - p3_poly(1.0, n, sol.c1, sol.c2, x)) for x in xs)
    assert abs((2.0 * n) * sup - sol.minimax) <= 0.1 * sol.minimax


def test_p3_scaled_convergence_pointwise(nb_solution):
    sol = nb_solution(1.0)
    n = 128
    for x in (1.0, 4.0, 10.0):
        scaled = (2.0 * n) ** 1.0 * (abs(x / (2 * n)) - p3_poly(1.0, n, sol.c1, sol.c2, x / (2 * n)))
        ref = limit_error(1.0, sol.c1, sol.c2, x)
        assert abs(scaled - ref) <= 0.05 * max(abs(ref), sol.minimax)


def test_p3_domain():
    with pytest.raises(ValueError):
        p3_poly(1.0, 0, 0.2, 0.4, 0.5)
    with pytest.raises(ValueError):
        p3_poly(5.0, 2, 0.2, 0.4, 0.5)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 2\.5$"):
        p3_poly(1.0, 2.5, 0.3, 0.4, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda c1, c2: limit_error(1.0, c1, c2, 2.0),
        lambda c1, c2: interp_points(1.0, c1, c2, 3),
        lambda c1, c2: alternation_points(1.0, c1, c2, 3),
        lambda c1, c2: p3_poly(1.0, 8, c1, c2, 0.3),
    ],
    ids=["limit_error", "interp_points", "alternation_points", "p3_poly"],
)
@pytest.mark.parametrize(
    "c1,c2,bad", [(math.nan, 0.45, "c1"), (0.26, math.inf, "c2"), (-math.inf, math.nan, "c1")]
)
def test_non_finite_constants_are_named(call, c1, c2, bad, monkeypatch):
    # the first constant that is not finite is named, before any kernel is
    # evaluated, where a NaN or a "0 roots found" once came back
    monkeypatch.setattr(nearbest, "kernel_values", None)
    with pytest.raises(ValueError, match=f"{bad} must be finite"):
        call(c1, c2)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("x", [0.0, 2.0])
@pytest.mark.parametrize("cached", [False, True])
def test_limit_error_names_a_bad_alpha(alpha, x, cached, cache_half):
    # x = 0 takes -p c2 without a kernel, so alpha is checked at entry, where a
    # NaN or a value for a negative alpha once came back
    with pytest.raises(ValueError, match="^limit_error requires finite alpha"):
        limit_error(alpha, 0.3, 0.4, x, cache=cache_half if cached else None)


@pytest.mark.parametrize("x", [1e155, 1e200, 1e300])
def test_limit_error_where_x_squared_overflows(x):
    # H1 and A0 take their limits C(1)/x and D(1) there: E is p c1 cos(x) D(1)
    # to within the O(1/x) terms
    tail = nearbest._prefactor(1.0) * 0.3 * math.cos(x) * kernels.D_const(1.0)
    got = limit_error(1.0, 0.3, 0.4, x)
    assert abs(got - tail) <= 1e-15 * abs(tail)
    mixed = limit_error(1.0, 0.3, 0.4, np.array([0.0, 0.5, x]))
    assert np.array_equal(mixed, [limit_error(1.0, 0.3, 0.4, v) for v in (0.0, 0.5, x)])
