import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BarycentricInterpolator

from bernsteinlab import chebinterp
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
    with pytest.raises(ValueError):
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
    # a point gets the same bits alone as in any batch; the polish evaluates
    # batches whose size changes every step.  The batch spans several of
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
    # deterministic work gate: the grid scan and every golden step are one
    # _bary call each (which blocks its rows privately), not one per point
    calls = []
    bary = chebinterp._bary

    def counting_bary(system, fvals, x):
        calls.append(len(x))
        return bary(system, fvals, x)

    monkeypatch.setattr(chebinterp, "_bary", counting_bary)
    sup_error(build_nodes("P2", 512), 1.0)
    assert len(calls) <= 64
