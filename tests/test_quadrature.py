import math

import numpy as np
import pytest

from bernsteinlab.quadrature import (
    QuadConfig,
    QuadratureError,
    integrate_finite,
    integrate_semi_infinite,
    integrate_zero_to_inf,
)

import oracles


def test_constant_integrand():
    r = integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-12


def test_inverse_sqrt_singularity():
    r = integrate_finite(lambda t: t**-0.5, 0.0, 1.0)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-12


def test_singular_power_over_sinh_vs_midpoint_oracle():
    # t^0.1/sinh(t) ~ t^-0.9 at 0; oracle is a 1e6-panel midpoint rule on a
    # substituted (analytic) integrand
    oracle = oracles.midpoint_singular_power_sinh(0.1)
    r = integrate_finite(lambda t: t**0.1 * 2.0 * np.exp(-t) / (-np.expm1(-2.0 * t)), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - oracle) <= 1e-9


def test_exponential_tail():
    r = integrate_semi_infinite(lambda t: np.exp(-t), 0.0)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-12


def test_sech_halfline():
    r = integrate_zero_to_inf(lambda t: 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t)))
    assert abs(r.value - math.pi / 2.0) <= 1e-12


def test_t_over_sinh_halfline():
    # closed form 2 (1 - 2^-(a+1)) Gamma(a+1) zeta(a+1) at a = 1 is pi^2/4
    r = integrate_zero_to_inf(lambda t: 2.0 * t * np.exp(-t) / (-np.expm1(-2.0 * t)))
    assert abs(r.value - math.pi**2 / 4.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("c", [0.0, 0.5, 2.0])
def test_incomplete_gamma_identity(alpha, c):
    r = integrate_finite(
        lambda x: np.exp((alpha - 1.0) * np.log(x) - alpha * x) * (1.0 - x), 0.0, c
    )
    ref = c**alpha * math.exp(-alpha * c) / alpha
    assert abs(r.value - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
def test_gamma_scalings(alpha):
    v = integrate_zero_to_inf(lambda x: np.exp((alpha - 2.0) * np.log(x) - alpha * x))
    ref = math.gamma(alpha - 1.0) / alpha ** (alpha - 1.0)
    assert abs(v.value - ref) <= 1e-12 * ref
    ref2 = math.gamma(alpha) / alpha**alpha
    for p in (alpha - 1.0, alpha):
        v = integrate_zero_to_inf(lambda x, p=p: np.exp(p * np.log(x) - alpha * x))
        assert abs(v.value - ref2) <= 1e-12 * ref2


def test_split_additivity():
    f = lambda t: np.exp(1.3 * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t))
    whole = integrate_zero_to_inf(f, QuadConfig(split_point=2.0))
    parts = integrate_zero_to_inf(f, QuadConfig(split_point=1.0))
    assert abs(whole.value - parts.value) <= 1e-11 * abs(whole.value)


def test_nan_is_hard_error():
    with pytest.raises(QuadratureError, match="x="):
        integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0)


def test_non_convergence_flag():
    r = integrate_finite(lambda t: t**-0.9, 0.0, 1.0, QuadConfig(max_levels=3))
    assert not r.converged


def test_halfline_non_convergence_raises():
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_zero_to_inf(lambda t: t**-0.9 * np.exp(-t), QuadConfig(max_levels=3))


def test_converged_error_invariant():
    cfg = QuadConfig(rel_tol=1e-10)
    r = integrate_finite(lambda t: np.cos(t), 0.0, 2.0, cfg)
    assert r.converged
    assert r.err_estimate <= max(cfg.rel_tol * abs(r.value), cfg.abs_floor)


def test_degenerate_interval():
    r = integrate_finite(lambda t: t, 1.0, 1.0)
    assert r.value == 0.0 and r.converged


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, 1.0, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": -1.0},
        {"abs_floor": -1e-3},
        {"max_levels": 0},
        {"split_point": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        QuadConfig(**kwargs)
