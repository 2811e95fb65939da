import math

import numpy as np
import pytest

from bernsteinlab import quadrature
from bernsteinlab.quadrature import (
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
    # the half-line entry against the same integral cut at 2 instead
    f = lambda t: np.exp(1.3 * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t))
    whole = integrate_zero_to_inf(f)
    parts = integrate_finite(f, 0.0, 2.0).value + integrate_semi_infinite(f, 2.0).value
    assert abs(whole.value[0] - parts) <= 1e-11 * abs(parts)


def test_nan_is_hard_error():
    with pytest.raises(QuadratureError, match="x="):
        integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0)


def test_inf_is_overflow_error():
    with pytest.raises(OverflowError, match="x="):
        integrate_finite(lambda t: np.full_like(t, np.inf), 0.0, 1.0)


def _kink(t):
    # |t - 1/3|^(1/2): the interior kink caps the tanh-sinh rule at about 1e-6
    return np.abs(t - 1.0 / 3.0) ** 0.5


def test_non_convergence_flag():
    r = integrate_finite(_kink, 0.0, 1.0)
    assert not r.converged
    assert r.levels_used == quadrature.MAX_LEVELS


def test_halfline_non_convergence_raises():
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_zero_to_inf(lambda t: np.abs(t - 0.5) ** 0.5 * np.exp(-t))


def test_halfline_batch_rows():
    # one value and one error per row of an (m, n) integrand
    ps = np.array([[0.5], [1.0], [3.0]])
    r = integrate_zero_to_inf(lambda t: np.exp(ps * np.log(t) - t))
    assert r.value.shape == r.err_estimate.shape == (3,)
    for p, v in zip(ps[:, 0], r.value):
        assert abs(v - math.gamma(p + 1.0)) <= 1e-12 * math.gamma(p + 1.0)


def test_converged_error_invariant():
    r = integrate_finite(lambda t: np.cos(t), 0.0, 2.0)
    assert r.converged
    assert r.err_estimate <= max(quadrature.REL_TOL * abs(r.value), quadrature.ABS_FLOOR)


def test_degenerate_interval():
    r = integrate_finite(lambda t: t, 1.0, 1.0)
    assert r.value == 0.0 and r.converged


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, 1.0, 0.0)


def _three_rows_with(value):
    """A 3-row integrand equal to exp(-t), but for `value` at node 5 of row 1
    on the first call; records the nodes of that call."""
    seen = []

    def f(t):
        rows = np.vstack([np.exp(-t)] * 3)
        if not seen:
            seen.append(t.copy())
            rows[1, 5] = value
        return rows

    return f, seen


@pytest.mark.parametrize("value,error", [(np.inf, OverflowError), (np.nan, QuadratureError)])
def test_non_finite_entry_names_its_x(value, error):
    # the row sums flag the bad row; the error still names the node it came from
    f, seen = _three_rows_with(value)
    with pytest.raises(error) as exc:
        integrate_zero_to_inf(f)
    assert str(exc.value) == f"integrand returned {np.float64(value)!r} at x={seen[0][5]!r}"


def test_finite_rows_whose_sums_overflow_do_not_converge():
    # every entry is finite, so there is no node to name: the sums are inf and
    # the half-line entry reports the unconverged row
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_zero_to_inf(lambda t: np.full((3, len(t)), 1e308))


@pytest.mark.parametrize(
    "integrate",
    [
        lambda f: quadrature.integrate_finite_batch(f, 0.0, quadrature.SPLIT_POINT)[:2],
        lambda f: quadrature.integrate_semi_infinite_batch(f, quadrature.SPLIT_POINT)[:2],
        lambda f: (lambda r: (r.value, r.err_estimate))(integrate_zero_to_inf(f)),
        lambda f: (lambda r: (r.value, r.err_estimate))(integrate_finite(f, 0.0, 1.0)),
        lambda f: (lambda r: (r.value, r.err_estimate))(integrate_semi_infinite(f, 1.0)),
    ],
    ids=["finite_part", "semi_infinite_part", "zero_to_inf", "finite", "semi_infinite"],
)
def test_fixed_part_nodes_are_read_only(integrate):
    # every rule's nodes are built once per interval and level and shared, so
    # an integrand that writes to them must fail, not corrupt them
    def f(t):
        return np.exp(-t) / (1.0 + t * t)

    def writer(t):
        t *= 2.0
        return f(t)

    value, err = integrate(f)
    with pytest.raises(ValueError, match="read-only"):
        integrate(writer)
    again = integrate(f)
    assert np.array_equal(value, again[0]) and np.array_equal(err, again[1])
