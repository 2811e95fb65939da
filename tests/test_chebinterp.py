import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BarycentricInterpolator

from bernsteinlab import chebinterp
from bernsteinlab._search import refine_grid_maxima
from bernsteinlab.chebinterp import build_nodes, interp_eval, scaled_interp_eval, sup_error
from bernsteinlab.entire import G_alpha, H_alpha_integral
from bernsteinlab.kernels import C_const

PI = math.pi


def test_p2_n1_nodes():
    s = build_nodes("P2", 1)
    assert np.allclose(s.nodes, [math.sqrt(3.0) / 2.0, 0.0, -math.sqrt(3.0) / 2.0], atol=1e-15)
    assert s.nodes[1] == 0.0


def test_p1_n1_nodes():
    s = build_nodes("P1", 1)
    assert np.allclose(s.nodes, [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-15)
    assert s.nodes[1] == 0.0


def test_p2_n50_nodes_shape():
    s = build_nodes("P2", 50)
    assert len(s.nodes) == 101
    assert (np.diff(s.nodes) < 0).all()
    assert np.array_equal(s.nodes, -s.nodes[::-1])  # exactly symmetric


def test_build_nodes_validation():
    with pytest.raises(ValueError):
        build_nodes("P3", 4)
    with pytest.raises(ValueError):
        build_nodes("P2", 0)
    # a count that is not an integer is named; numpy integers pass
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 2\.5$"):
        build_nodes("P1", 2.5)
    assert np.array_equal(build_nodes("P1", np.int64(3)).nodes, build_nodes("P1", 3).nodes)


@pytest.mark.parametrize("scheme,n", [("P1", 3), ("P2", 3)])
def test_bary_weights_match_product_formula(scheme, n):
    s = build_nodes(scheme, n)
    brute = np.array(
        [
            1.0 / np.prod([s.nodes[i] - s.nodes[k] for k in range(len(s.nodes)) if k != i])
            for i in range(len(s.nodes))
        ]
    )
    ratio = s.bary_weights / brute
    assert abs(ratio.max() / ratio.min() - 1.0) <= 1e-12  # same up to a common scale


def test_interpolation_property():
    s = build_nodes("P2", 1)
    x0 = math.sqrt(3.0) / 2.0
    assert abs(interp_eval(s, 1.0, x0) - x0) <= 1e-13


def test_hand_solved_quadratic():
    # interpolant of |x| through (0,0), (+-sqrt(3)/2, sqrt(3)/2) is x^2/(sqrt(3)/2)
    s = build_nodes("P2", 1)
    assert abs(interp_eval(s, 1.0, 0.5) - 0.25 / (math.sqrt(3.0) / 2.0)) <= 1e-13


def test_reproduction_at_all_nodes():
    s = build_nodes("P1", 4)
    for x in s.nodes:
        assert abs(interp_eval(s, 0.5, x) - abs(x) ** 0.5) <= 1e-13


def test_even_symmetry():
    s = build_nodes("P2", 8)
    for x in (0.123, 0.5, 0.97):
        assert abs(interp_eval(s, 0.7, x) - interp_eval(s, 0.7, -x)) <= 1e-12


def test_error_zero_at_origin():
    for scheme in ("P1", "P2"):
        s = build_nodes(scheme, 6)
        assert interp_eval(s, 0.5, 0.0) == 0.0


def test_scaled_eval_at_zero():
    assert scaled_interp_eval(build_nodes("P2", 1), 1.0, 0.0) == 0.0


def test_scaled_eval_domain():
    with pytest.raises(ValueError):
        scaled_interp_eval(build_nodes("P2", 4), 1.0, 9.0)


def test_scaled_p2_approaches_entire_limit():
    v = scaled_interp_eval(build_nodes("P2", 64), 1.0, PI)
    assert abs(v - H_alpha_integral(1.0, PI)) <= 2e-2


def test_scaled_p1_approaches_entire_limit():
    v = scaled_interp_eval(build_nodes("P1", 64), 1.0, PI / 2.0)
    assert abs(v - G_alpha(1.0, PI / 2.0)) <= 5e-2


def test_sup_error_requires_enough_degree():
    with pytest.raises(ValueError, match=r"^need 2n > alpha .*, got n=1 and alpha=2\.5$"):
        sup_error(build_nodes("P2", 1), 2.5)
    with pytest.raises(ValueError, match="finite alpha"):
        sup_error(build_nodes("P2", 8), math.nan)
    with pytest.raises(ValueError, match="alpha >= 0"):
        sup_error(build_nodes("P2", 8), -1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
def test_interp_eval_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        interp_eval(build_nodes("P2", 8), alpha, 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, 2.0, -1.0000000000000002, [0.5, math.nan]])
def test_interp_eval_rejects_x_outside_the_interval(x):
    with pytest.raises(ValueError, match=r"x must lie in \[-1, 1\]"):
        interp_eval(build_nodes("P1", 8), 1.0, x)


def test_scaled_eval_rejects_nan():
    with pytest.raises(ValueError, match="x_big"):
        scaled_interp_eval(build_nodes("P2", 4), 1.0, math.nan)


@pytest.mark.parametrize("scheme,x", [("P1", 1e-310), ("P2", 5e-324), ("P1", -5e-324)])
def test_subnormal_x_next_to_node_zero_takes_its_value(scheme, x):
    # w / (x - 0) overflows without an exact hit; the row takes the value at
    # its nearest node, |0|^alpha = 0, and raises no RuntimeWarning
    assert interp_eval(build_nodes(scheme, 8), 1.0, x) == 0.0


def test_bary_never_snaps_nan_to_a_node():
    s = build_nodes("P1", 8)
    out = chebinterp._bary(s, np.abs(s.nodes), np.array([math.nan, 0.0, s.nodes[2]]))
    assert math.isnan(out[0])
    assert out[1] == 0.0 and out[2] == abs(s.nodes[2])


def test_p2_scaled_error_converges_to_kernel_norm(scaled_err, h_norm):
    target = 2.0 / PI * h_norm(1.0).norm
    gaps = []
    for n in (4, 8, 16, 32, 64, 128, 256):
        gaps.append(abs(scaled_err("P2", 1.0, n).scaled_error - target))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))  # decreasing gap
    assert gaps[-1] <= 0.02 * target


def test_p1_scaled_error_alpha1_limit_is_one(scaled_err):
    # (2/pi) |sin(pi/2)| D(1) = (2/pi)(pi/2) = 1
    assert abs(scaled_err("P1", 1.0, 256).scaled_error - 1.0) <= 0.02


def test_p2_scaled_error_upper_bound(scaled_err):
    bound = 2.0 / PI * abs(math.sin(PI * 0.25)) * C_const(0.5)
    assert scaled_err("P2", 0.5, 256).scaled_error <= bound * 1.05


def test_jackson_order_alpha_half(scaled_err):
    # (2n)^alpha * sup-error stays bounded: Jackson-order behaviour
    bound = 2.0 / PI * abs(math.sin(PI * 0.25)) * C_const(0.5) * 1.05
    for n in (8, 16, 32, 64, 128, 256):
        assert scaled_err("P2", 0.5, n).scaled_error <= bound


def test_sup_error_argmax_in_unit_interval(scaled_err):
    err = scaled_err("P2", 1.0, 16)
    assert 0.0 <= err.argmax_x <= 1.0


@pytest.mark.parametrize("n", [8, 32])
def test_p1_sup_error_counts_the_end_x1(n):
    # the P1 error peaks at x = 1 itself; an oracle sharing no code with the
    # barycentric evaluator gives the error there (slack for its roundoff only)
    s = build_nodes("P1", n)
    p_at_1 = BarycentricInterpolator(s.nodes, np.abs(s.nodes))(1.0)
    end_value = 2.0 * n * abs(1.0 - p_at_1)
    assert sup_error(s, 1.0).scaled_error >= end_value * (1.0 - 1e-12)


@pytest.mark.parametrize("n", [8, 512])
@pytest.mark.parametrize("scheme", ["P1", "P2"])
def test_bary_point_is_independent_of_its_batch(scheme, n):
    # a point gets the same bits alone as in any batch; sup_error evaluates
    # as many tops as the screen keeps.  The batch spans several of
    # _bary's blocks, with node hits (x = 0 among them) only after the first
    s = build_nodes(scheme, n)
    fvals = np.abs(s.nodes) ** 0.7
    rows = chebinterp._BLOCK_ENTRIES // len(s.nodes)
    xs = np.concatenate(
        [np.linspace(-1.0, 1.0, max(3001, 3 * rows + 1)), s.nodes[:: max(1, n // 8)], [0.0, -0.0]]
    )
    assert len(xs) > 3 * rows
    batch = chebinterp._bary(s, fvals, xs)
    single = np.array([chebinterp._bary(s, fvals, xs[i : i + 1])[0] for i in range(len(xs))])
    assert np.array_equal(batch, single)
    assert np.array_equal(chebinterp._bary(s, fvals, s.nodes), fvals)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_p2_sup_error_matches_mpmath_at_its_argmax(alpha):
    # 40-digit barycentric evaluation on nodes and weights built in mpmath,
    # sharing no code with the library, at the library's own argmax
    n = 512
    got = sup_error(build_nodes("P2", n), alpha)
    m = 2 * n + 1
    with mpmath.workdps(40):
        x, a = mpmath.mpf(got.argmax_x), mpmath.mpf(alpha)
        num = den = mpmath.mpf(0)
        for j in range(1, m + 1):
            theta = (j - mpmath.mpf(0.5)) * mpmath.pi / m
            q = (-1) ** (j - 1) * mpmath.sin(theta) / (x - mpmath.cos(theta))
            num += q * abs(mpmath.cos(theta)) ** a
            den += q
        ref = float((2 * n) ** a * abs(x**a - num / den))
    assert abs(got.scaled_error - ref) <= 1e-13 * ref


def test_sup_error_polishes_in_few_batched_calls(monkeypatch):
    # deterministic work gate: one _bary call (which blocks its rows
    # privately) at the two ends and one at every kept lobe's Newton top,
    # not one per point or per search step
    calls = []
    bary = chebinterp._bary

    def counting_bary(system, fvals, x):
        calls.append(len(x))
        return bary(system, fvals, x)

    monkeypatch.setattr(chebinterp, "_bary", counting_bary)
    for scheme in ("P1", "P2"):
        for alpha in (1.0, 1.9):
            calls.clear()
            sup_error(build_nodes(scheme, 512), alpha)
            assert len(calls) <= 2, (scheme, alpha)


def _counted_bary_points(monkeypatch, scheme, n, alpha):
    points = []
    bary = chebinterp._bary

    def counting_bary(system, fvals, x):
        points.append(len(x))
        return bary(system, fvals, x)

    monkeypatch.setattr(chebinterp, "_bary", counting_bary)
    sup_error(build_nodes(scheme, n), alpha)
    return sum(points)


@pytest.mark.parametrize("scheme,bound", [("P2", 200), ("P1", 420)])
def test_sup_error_polishes_only_the_lobes_near_the_top(scheme, bound, monkeypatch):
    # deterministic work gate: the FFT scan replaces the 20,481-point _bary
    # scan, and only the lobes that can hold the sup are polished.  Polishing
    # every grid maximum took 36,715 (P2) and 36,716 (P1) _bary points, every
    # lobe within 1e-2 of the top 16,072 (P1); the screen of P1's lobes
    # left 281 golden points, and one Newton top per kept lobe leaves 13
    assert _counted_bary_points(monkeypatch, scheme, 512, 1.0) <= bound


def _full_polish_sup_error(system, alpha):
    # the O(n^2) algorithm the FFT scan replaced: a _bary scan of the whole
    # grid, then every grid maximum polished
    n = system.n
    fvals = np.abs(system.nodes) ** alpha
    theta = np.linspace(0.0, 0.5 * PI, 40 * n + 1)
    xs = np.cos(theta)[::-1]
    xs[0] = 0.0

    def abserr(x):
        return np.abs(x**alpha - chebinterp._bary(system, fvals, x))

    peaks, values = refine_grid_maxima(abserr, xs, abserr(xs), xtol=1e-10)
    k = int(np.argmax(values))
    return (2.0 * n) ** alpha * float(values[k]), float(peaks[k])


def _bounds_at(system, alpha, x):
    # sup_error's B for the lobe that holds x, and R, scaled by (2n)^alpha
    fvals = np.abs(system.nodes) ** alpha
    m = 40 * system.n + 1
    coef = chebinterp._coefficients(system, fvals)
    xs = np.cos(np.linspace(0.0, 0.5 * PI, m))[::-1]
    x_lo = np.array([xs[max(np.searchsorted(xs, x) - 1, 0)]])
    p = chebinterp._scan(system, fvals, m)
    band, bary = chebinterp._screen_bounds(system, alpha, fvals, coef, p, x_lo)
    scale = (2.0 * system.n) ** alpha
    return scale * float(band[0]), scale * bary


@pytest.mark.parametrize("scheme", ["P1", "P2"])
def test_pruned_sup_error_has_the_full_polish_bits(scheme):
    # the sup from each lobe's Newton top agrees with golden section on every
    # grid maximum within the screen's bounds: 2 B for the local fit, R for
    # _bary (the largest gap is under 1e-3 of that).  At (3.5, P1, 512) a
    # cut of 1e-5 instead of 1e-2 would drop the lobe that holds the sup; at
    # (0.3, 512) and (1.9, 512) P1's lobe tops tie closest
    cases = [(a, n) for a in (0.1, 0.5, 1.0, 1.5, 1.9) for n in (1, 2, 3, 8, 64, 256)]
    for alpha, n in cases + [(1.0, 512), (3.5, 512), (0.3, 512), (1.9, 512)]:
        s = build_nodes(scheme, n)
        got = sup_error(s, alpha)
        band, bary = _bounds_at(s, alpha, got.argmax_x)
        ref, _ = _full_polish_sup_error(s, alpha)
        assert abs(got.scaled_error - ref) <= 2.0 * band + bary, (alpha, n)


@pytest.mark.parametrize("scheme", ["P1", "P2"])
def test_screen_keeps_the_bits_of_evaluating_every_top(scheme, monkeypatch):
    # the lobes the screen drops cannot hold the sup: with every grid maximum
    # within the 1e-2 cut evaluated at its Newton top, the sup and its argmax
    # keep their bits
    cases = [(a, n) for a in (0.1, 0.5, 1.0, 1.5, 1.9) for n in (1, 2, 3, 8, 64, 256, 2048)]
    cases += [(3.5, 512), (0.3, 512), (1.9, 512)]
    got = {(a, n): sup_error(build_nodes(scheme, n), a) for a, n in cases}
    screen = chebinterp._screen

    def keep_all(*args):
        x, keep = screen(*args)
        return x, np.ones_like(keep)

    monkeypatch.setattr(chebinterp, "_screen", keep_all)
    for alpha, n in cases:
        assert sup_error(build_nodes(scheme, n), alpha) == got[alpha, n], (alpha, n)


def _mp_bary(nodes, weights, values, x):
    # the barycentric interpolant and its first two x-derivatives
    num, den = [mpmath.mpf(0)] * 3, [mpmath.mpf(0)] * 3
    for xj, wj, fj in zip(nodes, weights, values):
        r = 1 / (x - xj)
        q = [wj * r, -wj * r * r, 2 * wj * r**3]
        num = [a + b * fj for a, b in zip(num, q)]
        den = [a + b for a, b in zip(den, q)]
    p = num[0] / den[0]
    p1 = (num[1] - p * den[1]) / den[0]
    return p, p1, (num[2] - 2 * p1 * den[1] - p * den[2]) / den[0]


@pytest.mark.parametrize(
    "scheme,n,alpha",
    [("P1", 2048, 0.5), ("P1", 2048, 1.0), ("P1", 2048, 1.5), ("P1", 2048, 1.9), ("P2", 512, 3.5)],
)
def test_sup_error_is_its_lobes_40_digit_top(scheme, n, alpha):
    # the interpolant on nodes and weights built in mpmath from their closed
    # forms, sharing no code with the library, and its lobe top by Newton's
    # method from the library's argmax.  The value is within B + R of that
    # top: B holds the nodes' rounding, which puts (P1, 2048, 0.5) 11 R from
    # it (the other cases, under R).  At the same x, the exact barycentric
    # sum on the library's own nodes, weights and values is within R of it
    s = build_nodes(scheme, n)
    got = sup_error(s, alpha)
    band, bary = _bounds_at(s, alpha, got.argmax_x)
    m = 2 * n + 1 if scheme == "P2" else 2 * n
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        theta = [(j - mpmath.mpf(0.5)) * mpmath.pi / m for j in range(1, m + 1)]
        nodes = [mpmath.cos(t) for t in theta]
        weights = [(-1) ** j * mpmath.sin(t) for j, t in enumerate(theta)]
        if scheme == "P1":  # 1 / (x T_2n)'(x_j), up to a common factor
            weights = [w / (2 * n * x) for w, x in zip(weights, nodes)] + [mpmath.mpf((-1) ** n)]
            nodes.append(mpmath.mpf(0))
        x = mpmath.mpf(got.argmax_x)
        for _ in range(3):
            p, p1, p2 = _mp_bary(nodes, weights, [abs(t) ** a for t in nodes], x)
            x = min(x - (a * x ** (a - 1) - p1) / (a * (a - 1) * x ** (a - 2) - p2), 1)
        p, _, _ = _mp_bary(nodes, weights, [abs(t) ** a for t in nodes], x)
        top = float((2 * n) ** a * abs(x**a - p))
        lib = [mpmath.mpf(float(t)) for t in s.nodes], [mpmath.mpf(float(w)) for w in s.bary_weights]
        p, _, _ = _mp_bary(*lib, [mpmath.mpf(float(f)) for f in np.abs(s.nodes) ** alpha], x)
        exact = float((2 * n) ** a * abs(x**a - p))
    assert abs(got.scaled_error - exact) <= bary
    assert abs(got.scaled_error - top) <= band + bary


@pytest.mark.parametrize("n", [1, 8, 512])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("scheme", ["P1", "P2"])
def test_fft_scan_matches_bary_on_the_grid(scheme, alpha, n):
    # far inside the 1e-2 lobe cut.  Near alpha = 2 and n >= 512 the error
    # nears the rounding of both evaluations, and P1 loses more through the
    # cancellation in its T_2n coefficient
    s = build_nodes(scheme, n)
    fvals = np.abs(s.nodes) ** alpha
    m = 40 * n + 1
    xs = np.cos(np.linspace(0.0, 0.5 * PI, m))
    exact = np.abs(xs**alpha - chebinterp._bary(s, fvals, xs))
    scanned = np.abs(xs**alpha - chebinterp._scan(s, fvals, m))
    assert np.abs(scanned - exact).max() <= 1e-8 * exact.max()


@pytest.mark.parametrize("n", [3, 512])
@pytest.mark.parametrize("alpha", [0.0, 2.0, 4.0])
@pytest.mark.parametrize("scheme", ["P1", "P2"])
def test_even_alpha_has_no_interpolation_error(scheme, alpha, n):
    # 2n > alpha, so the interpolant reproduces x^alpha; at n = 512 the
    # polish once returned rounding noise, 0.0017 scaled at alpha = 4
    got = sup_error(build_nodes(scheme, n), alpha)
    assert (got.scaled_error, got.argmax_x) == (0.0, 0.0)


@pytest.mark.parametrize(
    "alpha,scheme,n,log2_ratio",
    [
        (4.5, "P1", 256, "13.1"),
        (3.5, "P1", 2048, "9.2"),
        (3.5, "P2", 2048, "12.8"),
        (5.5, "P1", 256, "6.3"),
        (5.5, "P2", 256, "10.0"),
        (6.5, "P1", 64, "13.1"),
    ],
)
def test_sup_error_below_the_rounding_floor_raises(alpha, scheme, n, log2_ratio):
    # the sup is a few thousand roundings of the barycentric sum or fewer; the
    # CLI once printed such rows, 122880 at (5.5, P1, 2048)
    match = rf"^{scheme} n={n} alpha={alpha}: sup/rho = 2\^{log2_ratio} is below 2\^16"
    with pytest.raises(ValueError, match=match):
        sup_error(build_nodes(scheme, n), alpha)


@pytest.mark.parametrize("alpha,scheme,n", [(2.5, "P1", 2048), (3.5, "P1", 512)])
def test_sup_error_above_the_rounding_floor_returns(alpha, scheme, n):
    # (2.5, P1, 2048) has the least margin at alpha <= 2.5, sup/rho = 2^19.8;
    # (3.5, P1, 512) is 2^16.5
    s = build_nodes(scheme, n)
    got = sup_error(s, alpha)
    rho = chebinterp._rounding(s, np.abs(s.nodes) ** alpha, got.argmax_x)
    assert got.scaled_error >= 2.0**16 * (2.0 * n) ** alpha * rho
