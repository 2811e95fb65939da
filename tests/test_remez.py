import math

import numpy as np
import pytest

from bernsteinlab import _search, remez
from bernsteinlab.chebinterp import build_nodes, sup_error
from bernsteinlab.kernels import delta_1_closed, delta_2_closed
from bernsteinlab.specfun import gamma

import oracles


def test_best_quadratic_for_abs():
    ba = remez.best_poly(1.0, 1)
    # classical: E = 1/8 with p(x) = x^2 + 1/8, i.e. p(y) = y + 1/8
    assert abs(ba.E_n - 0.125) <= 1e-8
    assert np.allclose(ba.coeffs, [0.625, 0.5], atol=1e-10)
    assert np.allclose(ba.reference.points, [0.0, 0.25, 1.0], atol=1e-8)


def test_best_quadratic_vs_bruteforce_grid():
    brute = oracles.brute_minimax_even_quadratic()
    assert abs(remez.best_poly(1.0, 1).E_n - brute) <= 2e-4


def test_best_constant():
    ba = remez.best_poly(1.0, 0)
    assert abs(ba.E_n - 0.5) <= 1e-12
    assert abs(ba.coeffs[0] - 0.5) <= 1e-12


def test_vs_lp_oracle():
    lp = oracles.lp_minimax(0.5, 8)
    ba = remez.best_poly(0.5, 8)
    assert abs(ba.E_n - lp) <= 1e-6


def test_equioscillation_reference():
    ba = remez.best_poly(0.75, 6)
    ref = ba.reference
    assert len(ref.points) == 6 + 2
    assert (ref.signs[1:] * ref.signs[:-1] < 0).all()

    # the reference really carries equal |error| values
    def p(y):
        return remez.eval_approx(ba, np.sqrt(y))

    errs = ref.points ** (0.75 / 2.0) - p(ref.points)
    mags = np.abs(errs)
    assert mags.max() - mags.min() <= 1e-9 * mags.max()
    assert np.allclose(np.sign(errs), ref.signs)


def test_eval_approx_reproduces_leveled_error():
    ba = remez.best_poly(1.0, 1)
    xs = np.array([0.0, 0.5, 1.0])
    assert np.allclose(np.abs(np.abs(xs) - remez.eval_approx(ba, xs)), 0.125, atol=1e-9)


@pytest.mark.parametrize("x", [2.0, -1.0000000000000002, math.nan, math.inf, [0.5, -math.inf]])
def test_eval_approx_names_x_outside_the_interval(x):
    # the polynomial is no approximation past sqrt(y_hi): at x = 2 it reads
    # -868.8 for |x| = 4
    with pytest.raises(ValueError, match="^x must"):
        remez.eval_approx(remez.best_poly(1.0, 4), x)


def test_eval_approx_takes_the_interval_ends():
    # sqrt(2)^2 rounds one ulp above 2: the bound is taken in x, not in x^2
    ba = remez.best_poly(1.0, 4, y_hi=2.0)
    end = math.sqrt(2.0)
    assert end * end > 2.0
    u = 2.0 * end**2 / 2.0 - 1.0
    assert np.array_equal(remez.eval_approx(ba, [-end, end]), remez._eval_cheb(ba.coeffs, np.array([u, u])))


def test_optimality_sandwich_vs_interpolation():
    # the best error can never exceed the interpolation error
    for alpha, n in ((0.5, 8), (1.0, 6)):
        e_best = remez.best_poly(alpha, n).E_n
        scaled = sup_error(build_nodes("P2", n), alpha).scaled_error
        assert e_best <= scaled / (2.0 * n) ** alpha


def test_error_monotone_in_degree():
    errors = [remez.best_poly(0.77, n).E_n for n in range(2, 7)]
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_scaling_identity():
    assert abs(remez.scaling_check(1.0, 1, 2.0) - 2.0) <= 1e-8
    assert abs(remez.scaling_check(0.5, 2, 4.0) - 2.0) <= 1e-8
    assert abs(remez.scaling_check(1.0, 1, 1.0) - 1.0) <= 1e-12
    # at the ends of y_hi's range the polish's derivatives stay in range
    for b in (1e-150, 1e150):
        assert abs(remez.scaling_check(0.5, 2, b) / b**0.5 - 1.0) <= 1e-10


def test_extrapolation_alpha_one():
    est = remez.bernstein_extrapolate(1.0, [8, 16, 32, 64])
    assert abs(est - 0.2802) <= 0.005
    # a one-shot iterable gives the list's value
    assert remez.bernstein_extrapolate(1.0, (n for n in [8, 16, 32, 64])) == est


def test_extrapolation_alpha_half():
    est = remez.bernstein_extrapolate(0.5, [8, 16, 32, 64])
    assert abs(est - 0.3486) <= 0.005


def test_extrapolation_even_integer_is_zero():
    assert remez.bernstein_extrapolate(2.0, [4, 8, 16]) == 0.0
    assert remez.best_poly(2.0, 3).E_n == 0.0


@pytest.mark.parametrize("alpha,n", [(2.0, 1), (2.0, 3), (4.0, 2), (4.0, 10), (6.0, 40), (2.0, 64)])
def test_even_alpha_is_reproduced_exactly(alpha, n):
    # |x|^alpha is a polynomial of degree <= 2n: the first leveled solve
    # interpolates it, with a zero error and an alternating reference
    ba = remez.best_poly(alpha, n)
    x = np.linspace(-1.0, 1.0, 2001)
    assert ba.E_n == 0.0
    assert np.max(np.abs(remez.eval_approx(ba, x) - np.abs(x) ** alpha)) <= 1e-14
    signs = ba.reference.signs
    assert len(signs) == n + 2 and (signs[1:] * signs[:-1] < 0).all()
    assert (np.diff(ba.reference.points) > 0).all()


def test_extrapolation_needs_three_points():
    with pytest.raises(ValueError):
        remez.bernstein_extrapolate(1.0, [8, 16])


@pytest.mark.parametrize("n_list", [[8, 8, 8], [8, 16, 16], [0, 8, 16], [-8, 8, 16]])
def test_extrapolation_needs_three_distinct_positive_n(n_list):
    # [8, 8, 8] would fit a rank-deficient model, [0, 8, 16] divide by zero
    with pytest.raises(ValueError, match="n_list"):
        remez.bernstein_extrapolate(1.0, n_list)


@pytest.mark.parametrize("n_list", [[8.9, 16, 32], [8.0, 16, 32], [8, 16, "32"]])
def test_extrapolation_refuses_what_best_poly_refuses(n_list):
    # int() would truncate 8.9 to 8 and fit [8, 16, 32] without a word
    with pytest.raises(ValueError, match="n_list"):
        remez.bernstein_extrapolate(1.0, n_list)


def test_domain_validation():
    with pytest.raises(ValueError):
        remez.best_poly(-1.0, 4)
    with pytest.raises(ValueError):
        remez.best_poly(1.0, -1)
    with pytest.raises(ValueError):
        remez.scaling_check(1.0, 1, 0.0)


@pytest.mark.parametrize(
    "args,name",
    [
        ((math.inf, 4), "alpha"),
        ((math.nan, 4), "alpha"),
        ((1.0, 2.5), "n"),
        ((1.0, 4, math.nan), "y_hi"),
        ((1.0, 4, math.inf), "y_hi"),
        ((1.0, 4, 0.0), "y_hi"),
        ((1.0, 4, -1.0), "y_hi"),
        # a subnormal y_hi made the polish's xtol = 1e-12 y_hi underflow to
        # 0, and golden section never closed its brackets
        ((1.0, 8, 1e-312), "y_hi"),
    ],
)
def test_best_poly_names_the_bad_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        remez.best_poly(*args)


@pytest.mark.parametrize("b", [-2.0, math.nan, math.inf, 1e200, 1e-200, 1e-160])
def test_scaling_check_names_b(b):
    with pytest.raises(ValueError, match="^b must"):
        remez.scaling_check(1.0, 1, b)


def _clenshaw_reference(coeffs, u):
    # the plain four-line recurrence that _eval_cheb runs in place
    b1 = np.zeros_like(u)
    b2 = np.zeros_like(u)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * u * b1 - b2 + c, b1
    return u * b1 - b2 + coeffs[0]


@pytest.mark.parametrize("size", [0, 1, 258, 13059])
@pytest.mark.parametrize("length", [1, 2, 3, 17, 257])
def test_eval_cheb_has_the_bits_of_the_plain_recurrence(length, size):
    rng = np.random.default_rng(1000 * length + size)
    coeffs = rng.standard_normal(length)
    u = rng.uniform(-1.0, 1.0, size)
    assert np.array_equal(remez._eval_cheb(coeffs, u), _clenshaw_reference(coeffs, u))


def test_stagnation_raises_with_reference(monkeypatch):
    monkeypatch.setattr(remez, "_MAX_EXCHANGES", 1)
    with pytest.raises(remez.RemezError) as err:
        remez.best_poly(0.5, 12)
    assert isinstance(err.value.reference, remez.ReferenceSet)


def test_polish_evaluates_all_candidates_together(monkeypatch):
    # deterministic work gate: per exchange, the interpolation nodes of
    # every bracket, the candidate errors and, in the last exchanges, the
    # solve's residual are one Clenshaw call each (the base grid is one DCT,
    # and the reference merged into it reads |level|); Newton runs on each
    # bracket's local series, so no golden section runs, where it took
    # about 47 steps per exchange
    calls = {"exchanges": 0, "clenshaw": 0}
    cheb_vander, eval_cheb = remez._cheb_vander, remez._eval_cheb

    def counting_vander(*args):
        calls["exchanges"] += 1
        return cheb_vander(*args)

    def counting_eval(*args):
        calls["clenshaw"] += 1
        return eval_cheb(*args)

    def no_golden(*args, **kwargs):
        raise AssertionError("golden section ran")

    monkeypatch.setattr(remez, "_cheb_vander", counting_vander)
    monkeypatch.setattr(remez, "_eval_cheb", counting_eval)
    monkeypatch.setattr(_search, "golden_max", no_golden)
    remez.best_poly(1.0, 64)
    assert calls["exchanges"] >= 1
    assert calls["clenshaw"] <= 3 * calls["exchanges"]


@pytest.mark.parametrize("alpha,n", [(1.0, 16), (0.5, 64), (1.5, 256)])
def test_polished_tops_reach_each_lobes_mpmath_maximum(alpha, n, monkeypatch):
    # the last exchange polishes the tops of the returned polynomial; the
    # oracle finds every interior lobe's top by 40-digit findroot on e' and
    # shares no code with the polish.  |e| at each polished top, taken in
    # mpmath, is its lobe's maximum to 4 eps max|p|, the rounding of f - p
    # in double: a top missed by more than that would move E_n
    calls = []
    tops = remez._tops
    monkeypatch.setattr(remez, "_tops", lambda *args: calls.append(tops(*args)) or calls[-1])
    ba = remez.best_poly(alpha, n)
    y_top = calls[-1]
    bounds, maxima, at_top = oracles.lobe_maxima_mp(alpha, ba.coeffs, 40 * (n + 2), y_top)
    assert len(maxima) == n  # n + 2 lobes, the two end ones dropped
    lobe = np.searchsorted(bounds, y_top, side="right") - 1
    inner = (lobe >= 0) & (lobe < n)
    assert set(lobe[inner]) == set(range(n))
    p_max = np.abs(np.polynomial.chebyshev.chebval(np.linspace(-1.0, 1.0, 1001), ba.coeffs)).max()
    gap = np.abs(at_top[inner] - maxima[lobe[inner]])
    assert gap.max() <= 4.0 * np.finfo(float).eps * p_max


@pytest.mark.parametrize("alpha,n", [(0.966318, 256), (1.007543, 64), (1.034272, 16)])
def test_dct_scan_gives_the_fits_of_a_clenshaw_scan(alpha, n, monkeypatch):
    # the DCT and Clenshaw round differently on the base grid, which only
    # picks the brackets to polish: at these fits every output keeps its bits
    dct = remez.best_poly(alpha, n)
    monkeypatch.setattr(remez, "_base_values", remez._eval_cheb)
    clenshaw = remez.best_poly(alpha, n)
    assert dct.E_n == clenshaw.E_n
    assert np.array_equal(dct.coeffs, clenshaw.coeffs)
    assert np.array_equal(dct.reference.points, clenshaw.reference.points)
    assert np.array_equal(dct.reference.signs, clenshaw.reference.signs)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 64, 256])
def test_dct_base_values_match_clenshaw(n):
    # the DCT sums at cos(theta_i) itself, Clenshaw at the rounded u_i of
    # best_poly's base grid; coefficients that fall as k^-3 keep |p'| <=
    # sum k^2 |c_k| small, so that the grid's rounding stays below an ulp
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(n + 1) / (np.arange(n + 1) + 1.0) ** 3
    theta = np.linspace(0.0, math.pi, max(50 * n, 200) + 1)
    y = 0.5 * (1.0 + np.cos(theta))[::-1]
    y[0] = 0.0
    u = 2.0 * y - 1.0
    gap = np.abs(remez._base_values(coeffs, u) - remez._eval_cheb(coeffs, u)).max()
    assert gap <= 4.0 * np.finfo(float).eps * np.abs(coeffs).sum()


@pytest.mark.parametrize("alpha", [0.5, 1.3])
def test_closed_form_constants_cross_check(alpha):
    """L1/L2 closed forms vs brute-force series / quadrature (no Remez)."""
    pi = math.pi
    b1 = (
        abs(math.sin(pi * alpha / 2.0))
        / pi
        * 8.0
        * gamma(alpha + 1.0)
        * oracles.direct_alternating_odd_sum(alpha + 2.0)
    )
    assert abs(delta_1_closed(alpha) - b1) <= 1e-10
    b2 = abs(math.sin(pi * alpha / 2.0)) / pi * 2.0 * gamma(alpha + 1.0) * math.sqrt(
        pi / (2.0 * alpha + 1.0)
    )
    assert abs(delta_2_closed(alpha) - b2) <= 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is plain double here")
@pytest.mark.parametrize("alpha,n", [(2.1, 96), (2.2, 96), (2.6, 48), (2.5, 60)])
def test_equalization_below_double_rounding_holds_in_mpmath(alpha, n):
    # 1e-10 E_n is 7.6e-17 to 2.4e-16 here, at most two roundings of f - p
    # in double near y = 1: the last exchanges refine the solve and take
    # f - p in long double, so the lobes of the returned polynomial, found
    # and measured at 40 digits, are level to the tolerance.  An exchange in
    # double returned these four with true spreads of 1.5 to 4.4 times it
    ba = remez.best_poly(alpha, n)
    _, maxima, at_ends = oracles.lobe_maxima_mp(alpha, ba.coeffs, 40 * (n + 2), ba.reference.points[[0, -1]])
    assert len(maxima) == n
    heights = np.concatenate([maxima, at_ends])
    assert np.abs(heights - ba.E_n).max() <= remez._EQUALIZE_RTOL * ba.E_n
