import math

import numpy as np
import pytest

from bernsteinlab import remez
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


def test_extrapolation_alpha_one():
    est = remez.bernstein_extrapolate(1.0, [8, 16, 32, 64])
    assert abs(est - 0.2802) <= 0.005


def test_extrapolation_alpha_half():
    est = remez.bernstein_extrapolate(0.5, [8, 16, 32, 64])
    assert abs(est - 0.3486) <= 0.005


def test_extrapolation_even_integer_is_zero():
    assert remez.bernstein_extrapolate(2.0, [4, 8, 16]) == 0.0
    assert remez.best_poly(2.0, 3).E_n == 0.0


def test_extrapolation_needs_three_points():
    with pytest.raises(ValueError):
        remez.bernstein_extrapolate(1.0, [8, 16])


@pytest.mark.parametrize("n_list", [[8, 8, 8], [8, 16, 16], [0, 8, 16], [-8, 8, 16]])
def test_extrapolation_needs_three_distinct_positive_n(n_list):
    # [8, 8, 8] would fit a rank-deficient model, [0, 8, 16] divide by zero
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
    ],
)
def test_best_poly_names_the_bad_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        remez.best_poly(*args)


@pytest.mark.parametrize("b", [-2.0, math.nan, math.inf, 1e200, 1e-200])
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
    # deterministic work gate: per exchange, the grid scan, every golden step
    # over all peaks and the candidate errors are one Clenshaw call each
    calls = {"exchanges": 0, "clenshaw": 0}
    cheb_vander, eval_cheb = remez._cheb_vander, remez._eval_cheb

    def counting_vander(*args):
        calls["exchanges"] += 1
        return cheb_vander(*args)

    def counting_eval(*args):
        calls["clenshaw"] += 1
        return eval_cheb(*args)

    monkeypatch.setattr(remez, "_cheb_vander", counting_vander)
    monkeypatch.setattr(remez, "_eval_cheb", counting_eval)
    remez.best_poly(1.0, 64)
    assert calls["exchanges"] >= 1
    assert calls["clenshaw"] <= 60 * calls["exchanges"]


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
